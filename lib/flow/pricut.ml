(* Priority K-cut enumeration over Kcut.spec cone networks: a cheap,
   exact-when-conclusive pre-filter consulted before any flow network is
   built (doc/PERF.md, "three-layer cut engine").

   Per node, a bounded set of minimal node cuts is built bottom-up:

     cuts(source v)      = { {v} }          (the zero-length path <v> must be cut)
     cuts(unreachable v) = { {} }
     cuts(gate v)        = prune ({v} when v may be cut
                                  + { a ∪ b | a ∈ cuts(f₁), b ∈ cuts(f₂), … })

   where prune drops unions wider than k, dominated (superset) cuts, and
   everything past the per-node budget.  The verdict for the whole cone
   merges the cut sets of the maximal sink-side nodes.

   Exactness: any valid ≤k cut C is, at every node it guards, a valid
   cut, and partial unions of its per-fanin sub-cuts are subsets of C —
   never wider than k — so an *untruncated* enumeration always retains a
   subset of C.  Hence a non-empty merge is a genuine witness (Cut), and
   an empty *complete* merge proves no ≤k cut exists (Exceeds).  Any
   budget truncation clears the completeness flag and an empty merge
   degrades to Unknown — the caller falls back to max-flow. *)

type verdict = Cut of int list | Exceeds | Unknown

(* Reusable per-label-run scratch (the CSR edge indexes and per-node
   tables are sized to the largest cone seen); mirrors the Kcut arena
   ownership protocol: one enumerator per label run. *)
type arena = {
  mutable fanin_off : int array; (* CSR: node -> fanin segment start *)
  mutable fanin : int array; (* CSR payload: fanin node ids *)
  mutable fanout_off : int array;
  mutable fanout : int array;
  mutable pending : int array; (* Kahn: unprocessed fanins per node *)
  mutable cuts : int array array array; (* node -> minimal cuts, priority order *)
  mutable complete : bool array;
  mutable maximal : bool array; (* sink-side with no sink-side consumer *)
  mutable queue : int array; (* Kahn topological queue *)
  mutable busy : bool;
}

let new_arena () =
  {
    fanin_off = [||];
    fanin = [||];
    fanout_off = [||];
    fanout = [||];
    pending = [||];
    cuts = [||];
    complete = [||];
    maximal = [||];
    queue = [||];
    busy = false;
  }

let ensure a n m =
  if Array.length a.pending < n then begin
    let c = max n (2 * Array.length a.pending) in
    a.fanin_off <- Array.make (c + 1) 0;
    a.fanout_off <- Array.make (c + 1) 0;
    a.pending <- Array.make c 0;
    a.cuts <- Array.make c [||];
    a.complete <- Array.make c true;
    a.maximal <- Array.make c false;
    a.queue <- Array.make c 0
  end;
  if Array.length a.fanin < m then begin
    let c = max m (2 * Array.length a.fanin) in
    a.fanin <- Array.make c 0;
    a.fanout <- Array.make c 0
  end

(* sorted-array set helpers (cuts are strictly increasing int arrays) *)

let union_bounded xs ys ~k =
  let nx = Array.length xs and ny = Array.length ys in
  let buf = Array.make (min (nx + ny) (k + 1)) 0 in
  let i = ref 0 and j = ref 0 and o = ref 0 in
  let over = ref false in
  while (not !over) && (!i < nx || !j < ny) do
    let x = (if !i < nx then xs.(!i) else max_int)
    and y = if !j < ny then ys.(!j) else max_int in
    let v =
      if x < y then (incr i; x)
      else if y < x then (incr j; y)
      else (incr i; incr j; x)
    in
    if !o > k - 1 then over := true
    else begin
      buf.(!o) <- v;
      incr o
    end
  done;
  if !over then None
  else if !o = Array.length buf then Some buf
  else Some (Array.sub buf 0 !o)

let subset xs ys =
  (* xs ⊆ ys, both strictly increasing *)
  let nx = Array.length xs and ny = Array.length ys in
  nx <= ny
  &&
  let i = ref 0 and j = ref 0 in
  while !i < nx && !j < ny do
    if xs.(!i) = ys.(!j) then (incr i; incr j)
    else if xs.(!i) > ys.(!j) then incr j
    else j := ny (* xs element missing from ys *)
  done;
  !i = nx

(* Priority order: fewer inputs first, then lexicographic — OCaml's
   structural compare on int arrays (size, then fields) is exactly that,
   and is deterministic across runs and hosts. *)
let prioritize cands = List.sort_uniq Stdlib.compare cands

(* Keep only the minimal (non-dominated) cuts of a priority-sorted list.
   A strict subset sorts strictly earlier (it is shorter), so one forward
   pass checking each cut against the kept prefix suffices. *)
let minimal_only cands =
  let kept = ref [] in
  List.iter
    (fun c ->
      if not (List.exists (fun m -> subset m c) !kept) then kept := c :: !kept)
    cands;
  List.rev !kept

(* Merge the cut sets of [parts] (cross-product of unions), respecting
   the width bound and the candidate budget.  Returns the pruned
   priority-ordered list and whether any candidate was discarded for
   budget reasons (width-k filtering never affects completeness). *)
let cross_merge ~k ~cand_cap parts =
  let truncated = ref false in
  let merge_two acc cuts =
    let cands = ref [] and count = ref 0 in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if !count >= cand_cap then truncated := true
            else
              match union_bounded a b ~k with
              | None -> ()
              | Some u ->
                  cands := u :: !cands;
                  incr count)
          cuts)
      acc;
    minimal_only (prioritize !cands)
  in
  match parts with
  | [] -> ([ [||] ], false)
  | first :: rest ->
      let acc = List.fold_left merge_two first rest in
      (acc, !truncated)

let rec take_bounded i = function
  | [] -> ([], false)
  | _ :: _ when i = 0 -> ([], true)
  | c :: tl ->
      let l, dropped = take_bounded (i - 1) tl in
      (c :: l, dropped)

let default_max_nodes = 160
let default_max_cuts = 8
let default_cand_cap = 40

let decide ?arena ?(max_nodes = default_max_nodes)
    ?(max_cuts = default_max_cuts) ?(cand_cap = default_cand_cap)
    (spec : Kcut.spec) ~k =
  if List.exists (fun s -> spec.Kcut.sink_side.(s)) spec.Kcut.sources then
    Exceeds
  else if spec.Kcut.n > max_nodes || k <= 0 then Unknown
  else begin
    let n = spec.Kcut.n in
    let m = Array.length spec.Kcut.edges in
    let a = match arena with Some a -> a | None -> new_arena () in
    if a.busy then
      invalid_arg
        "Pricut: arena is owned by an in-flight decide — two label runs \
         are sharing one arena (doc/CONCURRENCY.md: one arena per label \
         run)";
    a.busy <- true;
    Fun.protect ~finally:(fun () -> a.busy <- false) @@ fun () ->
    ensure a n m;
    let sink = spec.Kcut.sink_side in
    let pending = a.pending in
    Array.fill pending 0 n 0;
    for v = 0 to n - 1 do
      a.maximal.(v) <- sink.(v)
    done;
    Array.iter
      (fun (u, v) ->
        pending.(v) <- pending.(v) + 1;
        if sink.(v) then a.maximal.(u) <- false)
      spec.Kcut.edges;
    (* CSR fanin and fanout indexes; the offset cursors walk back to the
       segment starts while scattering the edge list *)
    let fin_off = a.fanin_off and fout_off = a.fanout_off in
    let racc = ref 0 and wacc = ref 0 in
    for v = 0 to n - 1 do
      racc := !racc + pending.(v);
      fin_off.(v) <- !racc
    done;
    fin_off.(n) <- !racc;
    Array.fill fout_off 0 (n + 1) 0;
    Array.iter
      (fun (u, _) -> fout_off.(u) <- fout_off.(u) + 1)
      spec.Kcut.edges;
    for v = 0 to n - 1 do
      let d = fout_off.(v) in
      fout_off.(v) <- !wacc + d;
      wacc := !wacc + d
    done;
    fout_off.(n) <- !wacc;
    Array.iter
      (fun (u, v) ->
        fin_off.(v) <- fin_off.(v) - 1;
        a.fanin.(fin_off.(v)) <- u;
        fout_off.(u) <- fout_off.(u) - 1;
        a.fanout.(fout_off.(u)) <- v)
      spec.Kcut.edges;
    let is_source = Array.make n false in
    List.iter (fun s -> is_source.(s) <- true) spec.Kcut.sources;
    (* bottom-up over a Kahn topological order *)
    let q = a.queue in
    let qlen = ref 0 in
    for v = 0 to n - 1 do
      if pending.(v) = 0 then begin
        q.(!qlen) <- v;
        incr qlen
      end
    done;
    let qhead = ref 0 in
    while !qhead < !qlen do
      let v = q.(!qhead) in
      incr qhead;
      (if is_source.(v) then begin
         (* the zero-length path <v> itself must be cut: {v} is the only
            minimal cut, even if v also has recorded fanins *)
         a.cuts.(v) <- [| [| v |] |];
         a.complete.(v) <- true
       end
       else if fin_off.(v + 1) = fin_off.(v) then begin
         (* unreachable from the sources: nothing to cut *)
         a.cuts.(v) <- [| [||] |];
         a.complete.(v) <- true
       end
       else begin
         let parts = ref [] and compl = ref true in
         for i = fin_off.(v) to fin_off.(v + 1) - 1 do
           let f = a.fanin.(i) in
           parts := Array.to_list a.cuts.(f) :: !parts;
           compl := !compl && a.complete.(f)
         done;
         let merged, trunc = cross_merge ~k ~cand_cap !parts in
         let merged =
           if sink.(v) then merged
           else
             (* {v} is never dominated by a fanin combo (v is not its own
                ancestor) and dominates any combo containing it *)
             minimal_only (prioritize ([| v |] :: merged))
         in
         let kept, dropped = take_bounded max_cuts merged in
         a.cuts.(v) <- Array.of_list kept;
         a.complete.(v) <- !compl && (not trunc) && not dropped
       end);
      for i = fout_off.(v) to fout_off.(v + 1) - 1 do
        let w = a.fanout.(i) in
        pending.(w) <- pending.(w) - 1;
        if pending.(w) = 0 then begin
          q.(!qlen) <- w;
          incr qlen
        end
      done
    done;
    if !qlen < n then Unknown (* cyclic spec: not a cone network *)
    else begin
      let parts = ref [] and compl = ref true and have_root = ref false in
      for v = 0 to n - 1 do
        if a.maximal.(v) then begin
          have_root := true;
          parts := Array.to_list a.cuts.(v) :: !parts;
          compl := !compl && a.complete.(v)
        end
      done;
      if not !have_root then Unknown
      else begin
        let merged, trunc = cross_merge ~k ~cand_cap !parts in
        match merged with
        | best :: _ -> Cut (Array.to_list best)
        | [] -> if !compl && not trunc then Exceeds else Unknown
      end
    end
  end
