open Prelude
open Circuit

(* observability (doc/OBSERVABILITY.md): expansion volume and budget
   overflows — the quantity the partial-network construction keeps small *)
let c_builds = Obs.Counter.make "expand.builds"
let c_nodes = Obs.Counter.make "expand.nodes"
let c_peak = Obs.Counter.make "expand.peak_nodes"
let c_overflows = Obs.Counter.make "expand.overflows"
let c_arena = Obs.Counter.make "expand.arena_reuses"
let h_nodes = Obs.Histogram.make "expand.nodes_per_build"

type node = { u : int; w : int }

type t = {
  nodes : node array;
  edges : (int * int) array;
  internal : bool array;
  sources : int list;
  overflow : bool;
}

let height labels phi u w = Rat.add (Rat.sub labels.(u) (Rat.mul_int phi w)) Rat.one

(* Open-addressing hash table over int pairs: parallel key arrays (ka, kb)
   and a value array, linear probing, power-of-two capacity, ka = -1 marks
   an empty slot.  Replaces the (int * int)-keyed Hashtbls of the build
   (tuple boxing + generic hashing on the hottest allocation path). *)
type pair_table = {
  mutable ka : int array;
  mutable kb : int array;
  mutable pv : int array;
  mutable mask : int;
  mutable count : int;
}

let pt_create cap =
  let cap = max 16 cap in
  (* round up to a power of two *)
  let c = ref 16 in
  while !c < cap do
    c := !c * 2
  done;
  { ka = Array.make !c (-1); kb = Array.make !c 0; pv = Array.make !c 0;
    mask = !c - 1; count = 0 }

let pt_clear t =
  Array.fill t.ka 0 (Array.length t.ka) (-1);
  t.count <- 0

let pt_hash a b =
  (* Fibonacci-style mix of the two keys; keys are small non-negative ints *)
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca77) in
  h lxor (h lsr 15)

let rec pt_grow t =
  let old_ka = t.ka and old_kb = t.kb and old_pv = t.pv in
  let cap = 2 * Array.length old_ka in
  t.ka <- Array.make cap (-1);
  t.kb <- Array.make cap 0;
  t.pv <- Array.make cap 0;
  t.mask <- cap - 1;
  t.count <- 0;
  Array.iteri
    (fun i a -> if a >= 0 then pt_put t a old_kb.(i) old_pv.(i))
    old_ka

and pt_put t a b v =
  if 3 * t.count >= 2 * Array.length t.ka then pt_grow t;
  let mask = t.mask in
  let i = ref (pt_hash a b land mask) in
  let slot = ref (-1) in
  while !slot < 0 do
    let j = !i in
    if t.ka.(j) < 0 then begin
      t.ka.(j) <- a;
      t.kb.(j) <- b;
      t.pv.(j) <- v;
      t.count <- t.count + 1;
      slot := j
    end
    else if t.ka.(j) = a && t.kb.(j) = b then begin
      t.pv.(j) <- v;
      slot := j
    end
    else i := (j + 1) land mask
  done

let pt_find t a b =
  let mask = t.mask in
  let i = ref (pt_hash a b land mask) in
  let res = ref (-1) in
  let stop = ref false in
  while not !stop do
    let j = !i in
    if t.ka.(j) < 0 then stop := true
    else if t.ka.(j) = a && t.kb.(j) = b then begin
      res := t.pv.(j);
      stop := true
    end
    else i := (j + 1) land mask
  done;
  !res

(* membership-only variant used for edge dedup: pv doubles as presence *)
let pt_add_if_absent t a b =
  if pt_find t a b < 0 then begin
    pt_put t a b 0;
    true
  end
  else false

(* Reusable build arena: the growable per-node vectors, the (u,w) -> local
   id index, the seen-edge set and the BFS queue, all reset (not
   re-allocated) per build. *)
type arena = {
  mutable a_node : node array;
  mutable a_internal : bool array;
  mutable a_cdepth : int array; (* candidate depth; max_int = unset *)
  mutable a_expanded : bool array;
  mutable a_len : int;
  index : pair_table; (* (u, w) -> local id *)
  seen_edge : pair_table; (* (src, dst) local pairs already recorded *)
  mutable e_src : int array;
  mutable e_dst : int array;
  mutable e_len : int;
  mutable queue : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable busy : bool;
      (* ownership tripwire: an arena belongs to exactly one build at a
         time (one label run); a second build observing [busy] means two
         label runs share an arena — a determinism bug, reported loudly
         instead of corrupting state *)
}

let new_arena () =
  {
    a_node = Array.make 64 { u = -1; w = -1 };
    a_internal = Array.make 64 false;
    a_cdepth = Array.make 64 max_int;
    a_expanded = Array.make 64 false;
    a_len = 0;
    index = pt_create 256;
    seen_edge = pt_create 256;
    e_src = Array.make 64 0;
    e_dst = Array.make 64 0;
    e_len = 0;
    queue = Array.make 64 0;
    q_head = 0;
    q_len = 0;
    busy = false;
  }

let arena_reset a =
  a.a_len <- 0;
  a.e_len <- 0;
  a.q_head <- 0;
  a.q_len <- 0;
  pt_clear a.index;
  pt_clear a.seen_edge

let vec_push a n i =
  if a.a_len >= Array.length a.a_node then begin
    let cap = 2 * Array.length a.a_node in
    let grow init arr =
      let b = Array.make cap init in
      Array.blit arr 0 b 0 a.a_len;
      b
    in
    a.a_node <- grow { u = -1; w = -1 } a.a_node;
    a.a_internal <- grow false a.a_internal;
    a.a_cdepth <- grow max_int a.a_cdepth;
    a.a_expanded <- grow false a.a_expanded
  end;
  let id = a.a_len in
  a.a_node.(id) <- n;
  a.a_internal.(id) <- i;
  a.a_cdepth.(id) <- max_int;
  a.a_expanded.(id) <- false;
  a.a_len <- id + 1;
  id

let edge_push a j i =
  if a.e_len >= Array.length a.e_src then begin
    let cap = 2 * Array.length a.e_src in
    let grow arr =
      let b = Array.make cap 0 in
      Array.blit arr 0 b 0 a.e_len;
      b
    in
    a.e_src <- grow a.e_src;
    a.e_dst <- grow a.e_dst
  end;
  a.e_src.(a.e_len) <- j;
  a.e_dst.(a.e_len) <- i;
  a.e_len <- a.e_len + 1

let queue_push a i =
  if a.q_len >= Array.length a.queue then begin
    let b = Array.make (2 * Array.length a.queue) 0 in
    Array.blit a.queue 0 b 0 a.q_len;
    a.queue <- b
  end;
  a.queue.(a.q_len) <- i;
  a.q_len <- a.q_len + 1

let build ?arena ?internal_of nl ~root ~labels ~phi ~threshold ~extra_depth
    ~max_nodes =
  let a =
    match arena with
    | Some a ->
        if a.busy then
          invalid_arg
            "Expanded.build: arena is owned by an in-flight build — two \
             label runs are sharing one arena (doc/CONCURRENCY.md: one \
             arena per label run)";
        Obs.Counter.incr c_arena;
        arena_reset a;
        a
    | None -> new_arena ()
  in
  a.busy <- true;
  Fun.protect ~finally:(fun () -> a.busy <- false) @@ fun () ->
  let is_internal =
    match internal_of with
    | Some f -> f
    | None -> fun u w -> Rat.( > ) (height labels phi u w) threshold
  in
  let overflow = ref false in
  let get u w ~is_root =
    match pt_find a.index u w with
    | i when i >= 0 -> i
    | _ ->
        let internal = is_root || is_internal u w in
        let i = vec_push a { u; w } internal in
        pt_put a.index u w i;
        i
  in
  let rootid = get root 0 ~is_root:true in
  a.a_cdepth.(rootid) <- 0;
  queue_push a rootid;
  while a.q_head < a.q_len do
    let i = a.queue.(a.q_head) in
    a.q_head <- a.q_head + 1;
    if not a.a_expanded.(i) then begin
      let { u; w } = a.a_node.(i) in
      let my_cd = if a.a_cdepth.(i) = max_int then 0 else a.a_cdepth.(i) in
      let expandable =
        Netlist.kind nl u <> Netlist.Pi
        && (a.a_internal.(i) || my_cd < extra_depth)
      in
      if expandable then
        if a.a_len > max_nodes then begin
          if a.a_internal.(i) then overflow := true
        end
        else begin
          a.a_expanded.(i) <- true;
          Array.iter
            (fun (x, we) ->
              let j = get x (w + we) ~is_root:false in
              if pt_add_if_absent a.seen_edge j i then edge_push a j i;
              let child_cd = if a.a_internal.(j) then 0 else my_cd + 1 in
              if a.a_cdepth.(j) > child_cd then begin
                a.a_cdepth.(j) <- child_cd;
                (* (re)visit with the improved candidate depth *)
                a.a_expanded.(j) <- false;
                queue_push a j
              end)
            (Netlist.fanins nl u)
        end
    end
  done;
  let n = a.a_len in
  Obs.Counter.incr c_builds;
  Obs.Counter.add c_nodes n;
  Obs.Counter.record_max c_peak n;
  Obs.Histogram.observe_int h_nodes n;
  if !overflow then Obs.Counter.incr c_overflows;
  let nodes = Array.init n (fun i -> a.a_node.(i)) in
  let internal = Array.init n (fun i -> a.a_internal.(i)) in
  (* edges in reverse discovery order, as the assoc-list accumulator this
     replaced produced them (the flow decision is order-insensitive, but
     residual tie-breaks pick the same cut) *)
  let ne = a.e_len in
  let edges = Array.init ne (fun i -> (a.e_src.(ne - 1 - i), a.e_dst.(ne - 1 - i))) in
  let sources = ref [] in
  for i = n - 1 downto 0 do
    if not a.a_expanded.(i) then sources := i :: !sources
  done;
  { nodes; edges; internal; sources = !sources; overflow = !overflow }

(* Like [frontier_cut], but only when the frontier is valid and at most
   [k] wide: one marking pass, the list materialized only on success. *)
let frontier_witness t ~k =
  if List.exists (fun i -> t.internal.(i)) t.sources then None
  else begin
    let n = Array.length t.nodes in
    let on = Array.make n false in
    let width = ref 0 in
    Array.iter
      (fun (src, dst) ->
        if (not t.internal.(src)) && t.internal.(dst) && not on.(src) then begin
          on.(src) <- true;
          incr width
        end)
      t.edges;
    if !width = 0 || !width > k then None
    else begin
      let fr = ref [] in
      for i = n - 1 downto 0 do
        if on.(i) then fr := i :: !fr
      done;
      Some !fr
    end
  end

let frontier_cut t =
  (* invalid when the internal region touches an unexpandable node (an
     internal PI or a node cut off by the budget): some root path then
     never crosses the frontier *)
  if List.exists (fun i -> t.internal.(i)) t.sources then []
  else begin
    let n = Array.length t.nodes in
    let on = Array.make n false in
    Array.iter
      (fun (src, dst) ->
        if (not t.internal.(src)) && t.internal.(dst) then on.(src) <- true)
      t.edges;
    List.filter (fun i -> on.(i)) (List.init n Fun.id)
  end

let kcut_spec t =
  {
    Flow.Kcut.n = Array.length t.nodes;
    edges = t.edges;
    sink_side = t.internal;
    sources = t.sources;
  }

let cone_bdd man nl t ~cut ~vars =
  let cut_pos = Hashtbl.create 8 in
  List.iteri (fun j i -> Hashtbl.replace cut_pos i j) cut;
  let index = Hashtbl.create 64 in
  Array.iteri (fun i { u; w } -> Hashtbl.replace index (u, w) i) t.nodes;
  let memo = Hashtbl.create 64 in
  let rec go i =
    match Hashtbl.find_opt cut_pos i with
    | Some j -> Bdd.var man vars.(j)
    | None -> (
        match Hashtbl.find_opt memo i with
        | Some b -> b
        | None ->
            let { u; w } = t.nodes.(i) in
            let b =
              match Netlist.kind nl u with
              | Netlist.Pi | Netlist.Po ->
                  invalid_arg "Expanded.cone_bdd: path escapes the cut"
              | Netlist.Gate f ->
                  let args =
                    Array.map
                      (fun (x, we) ->
                        match Hashtbl.find_opt index (x, w + we) with
                        | Some j -> go j
                        | None ->
                            invalid_arg
                              "Expanded.cone_bdd: path escapes the expansion")
                      (Netlist.fanins nl u)
                  in
                  Bdd.apply_truthtable man f args
            in
            Hashtbl.replace memo i b;
            b)
  in
  go 0

let cone_truthtable nl t ~cut =
  let k = List.length cut in
  if k > Logic.Truthtable.max_arity then
    invalid_arg "Expanded.cone_truthtable: cut too wide";
  let man = Bdd.new_man () in
  let vars = Array.init k Fun.id in
  let f = cone_bdd man nl t ~cut ~vars in
  Bdd.to_truthtable man f vars
