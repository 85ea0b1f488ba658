type node_id = int

type kind =
  | Pi
  | Po
  | Gate of Logic.Truthtable.t

type t = {
  mutable circuit_name : string;
  mutable kinds : kind array;
  mutable fanin : (node_id * int) array array;
  mutable names : string option array;
  mutable count : int;
  mutable pi_rev : node_id list;
  mutable po_rev : node_id list;
  by_name : (string, node_id) Hashtbl.t;
}

let initial = 64

let create ?(name = "circuit") () =
  {
    circuit_name = name;
    kinds = Array.make initial Pi;
    fanin = Array.make initial [||];
    names = Array.make initial None;
    count = 0;
    pi_rev = [];
    po_rev = [];
    by_name = Hashtbl.create 64;
  }

let name t = t.circuit_name
let set_name t s = t.circuit_name <- s
let n t = t.count

let grow t =
  let cap = Array.length t.kinds in
  let cap' = 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.kinds <- extend t.kinds Pi;
  t.fanin <- extend t.fanin [||];
  t.names <- extend t.names None

let alloc t kind fanins nm =
  if t.count >= Array.length t.kinds then grow t;
  let id = t.count in
  t.count <- id + 1;
  t.kinds.(id) <- kind;
  t.fanin.(id) <- fanins;
  t.names.(id) <- nm;
  (match nm with Some s -> Hashtbl.replace t.by_name s id | None -> ());
  id

let check_fanins t fanins =
  Array.iteri
    (fun j (drv, w) ->
      if drv < 0 || drv >= t.count then
        invalid_arg
          (Printf.sprintf "Netlist: fanin %d references unknown node %d" j drv);
      if w < 0 then invalid_arg "Netlist: negative edge weight")
    fanins

let add_pi ?name t =
  let id = alloc t Pi [||] name in
  t.pi_rev <- id :: t.pi_rev;
  id

let add_po ?name t ~driver ~weight =
  if driver < 0 || driver >= t.count then invalid_arg "Netlist.add_po: driver";
  if weight < 0 then invalid_arg "Netlist.add_po: negative weight";
  let id = alloc t Po [| (driver, weight) |] name in
  t.po_rev <- id :: t.po_rev;
  id

let add_gate ?name t f fanins =
  if Logic.Truthtable.arity f <> Array.length fanins then
    invalid_arg "Netlist.add_gate: arity mismatch";
  check_fanins t fanins;
  alloc t (Gate f) (Array.copy fanins) name

let reserve_gate ?name t = alloc t (Gate (Logic.Truthtable.const0 0)) [||] name

let define_gate t v f fanins =
  (match t.kinds.(v) with
  | Gate _ -> ()
  | Pi | Po -> invalid_arg "Netlist.define_gate: not a gate");
  if Logic.Truthtable.arity f <> Array.length fanins then
    invalid_arg "Netlist.define_gate: arity mismatch";
  check_fanins t fanins;
  t.kinds.(v) <- Gate f;
  t.fanin.(v) <- Array.copy fanins

let kind t v = t.kinds.(v)
let is_gate t v = match t.kinds.(v) with Gate _ -> true | Pi | Po -> false

let gate_function t v =
  match t.kinds.(v) with
  | Gate f -> f
  | Pi | Po -> invalid_arg "Netlist.gate_function: not a gate"

let fanins t v = t.fanin.(v)

let set_fanins t v fanins =
  check_fanins t fanins;
  (match t.kinds.(v) with
  | Gate f ->
      if Logic.Truthtable.arity f <> Array.length fanins then
        invalid_arg "Netlist.set_fanins: arity mismatch"
  | Po ->
      if Array.length fanins <> 1 then
        invalid_arg "Netlist.set_fanins: PO takes one fanin"
  | Pi ->
      if Array.length fanins <> 0 then
        invalid_arg "Netlist.set_fanins: PI takes no fanin");
  t.fanin.(v) <- Array.copy fanins

let set_weight t v j w =
  if w < 0 then invalid_arg "Netlist.set_weight: negative";
  let drv, _ = t.fanin.(v).(j) in
  t.fanin.(v).(j) <- (drv, w)

let set_gate_function t v f =
  match t.kinds.(v) with
  | Gate _ ->
      if Logic.Truthtable.arity f <> Array.length t.fanin.(v) then
        invalid_arg "Netlist.set_gate_function: arity mismatch";
      t.kinds.(v) <- Gate f
  | Pi | Po -> invalid_arg "Netlist.set_gate_function: not a gate"

let node_name t v =
  match t.names.(v) with Some s -> s | None -> Printf.sprintf "n%d" v

let find_by_name t s = Hashtbl.find_opt t.by_name s
let pis t = List.rev t.pi_rev
let pos t = List.rev t.po_rev

let gates t =
  let acc = ref [] in
  for v = t.count - 1 downto 0 do
    match t.kinds.(v) with Gate _ -> acc := v :: !acc | Pi | Po -> ()
  done;
  !acc

let delay t v = match t.kinds.(v) with Gate _ -> 1 | Pi | Po -> 0

let fanouts t =
  let out = Array.make t.count [] in
  for v = t.count - 1 downto 0 do
    Array.iter (fun (drv, _) -> out.(drv) <- v :: out.(drv)) t.fanin.(v)
  done;
  out

let max_fanin_weight t =
  let m = ref 0 in
  for v = 0 to t.count - 1 do
    Array.iter (fun (_, w) -> if w > !m then m := w) t.fanin.(v)
  done;
  !m

let retiming_edges t =
  let acc = ref [] in
  for v = t.count - 1 downto 0 do
    let d = delay t v in
    Array.iter
      (fun (drv, w) ->
        acc := { Graphs.Cycle_ratio.src = drv; dst = v; delay = d; weight = w } :: !acc)
      t.fanin.(v)
  done;
  Array.of_list !acc

(* successors through weight-0 edges only *)
let comb_succ t =
  let out = Array.make t.count [] in
  for v = t.count - 1 downto 0 do
    Array.iter (fun (drv, w) -> if w = 0 then out.(drv) <- v :: out.(drv)) t.fanin.(v)
  done;
  fun v -> out.(v)

let comb_topo_order t =
  match Graphs.Topo.sort ~n:t.count ~succ:(comb_succ t) with
  | Some o -> o
  | None -> invalid_arg "Netlist.comb_topo_order: combinational loop"

let mdr_ratio t = Graphs.Cycle_ratio.max_ratio ~n:t.count ~edges:(retiming_edges t)

type stats = {
  n_pi : int;
  n_po : int;
  n_gates : int;
  n_ff : int;
  total_edge_weight : int;
  max_fanin : int;
  comb_depth : int;
}

let stats t =
  let n_pi = List.length (pis t) and n_po = List.length (pos t) in
  let n_gates = ref 0 and total = ref 0 and maxfi = ref 0 in
  let max_w_out = Array.make t.count 0 in
  for v = 0 to t.count - 1 do
    (match t.kinds.(v) with
    | Gate _ ->
        incr n_gates;
        if Array.length t.fanin.(v) > !maxfi then maxfi := Array.length t.fanin.(v)
    | Pi | Po -> ());
    Array.iter
      (fun (drv, w) ->
        total := !total + w;
        if w > max_w_out.(drv) then max_w_out.(drv) <- w)
      t.fanin.(v)
  done;
  let n_ff = Array.fold_left ( + ) 0 max_w_out in
  let depth =
    match Graphs.Topo.sort ~n:t.count ~succ:(comb_succ t) with
    | None -> -1
    | Some order ->
        let lvl = Array.make t.count 0 in
        let d = ref 0 in
        Array.iter
          (fun v ->
            let dv = delay t v in
            Array.iter
              (fun (drv, w) ->
                if w = 0 && lvl.(drv) + dv > lvl.(v) then lvl.(v) <- lvl.(drv) + dv)
              t.fanin.(v);
            (* gates with only registered fanins still count their own delay *)
            if dv > 0 && Array.for_all (fun (_, w) -> w > 0) t.fanin.(v)
               && Array.length t.fanin.(v) > 0
            then lvl.(v) <- max lvl.(v) dv;
            if lvl.(v) > !d then d := lvl.(v))
          order;
        !d
  in
  {
    n_pi;
    n_po;
    n_gates = !n_gates;
    n_ff;
    total_edge_weight = !total;
    max_fanin = !maxfi;
    comb_depth = depth;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[pi=%d po=%d gates=%d ff=%d edge-ffs=%d max-fanin=%d depth=%d@]" s.n_pi
    s.n_po s.n_gates s.n_ff s.total_edge_weight s.max_fanin s.comb_depth

type error =
  | Arity_mismatch of node_id
  | Negative_weight of node_id * int
  | Dangling_driver of node_id * int
  | Po_without_driver of node_id
  | Combinational_loop
  | Fanin_exceeds of node_id * int

let pp_error fmt = function
  | Arity_mismatch v -> Format.fprintf fmt "node %d: truth-table arity mismatch" v
  | Negative_weight (v, j) -> Format.fprintf fmt "node %d: fanin %d has negative weight" v j
  | Dangling_driver (v, j) -> Format.fprintf fmt "node %d: fanin %d dangling" v j
  | Po_without_driver v -> Format.fprintf fmt "PO %d has no driver" v
  | Combinational_loop -> Format.fprintf fmt "combinational loop"
  | Fanin_exceeds (v, k) -> Format.fprintf fmt "node %d: fanin count exceeds K=%d" v k

let validate ?k t =
  let errs = ref [] in
  for v = 0 to t.count - 1 do
    (match t.kinds.(v) with
    | Gate f ->
        if Logic.Truthtable.arity f <> Array.length t.fanin.(v) then
          errs := Arity_mismatch v :: !errs;
        (match k with
        | Some k ->
            if Array.length t.fanin.(v) > k then errs := Fanin_exceeds (v, k) :: !errs
        | None -> ())
    | Po -> if Array.length t.fanin.(v) <> 1 then errs := Po_without_driver v :: !errs
    | Pi -> ());
    Array.iteri
      (fun j (drv, w) ->
        if w < 0 then errs := Negative_weight (v, j) :: !errs;
        if drv < 0 || drv >= t.count then errs := Dangling_driver (v, j) :: !errs)
      t.fanin.(v)
  done;
  (match Graphs.Topo.sort ~n:t.count ~succ:(comb_succ t) with
  | Some _ -> ()
  | None -> errs := Combinational_loop :: !errs);
  List.rev !errs

let validate_exn ?k t =
  match validate ?k t with
  | [] -> ()
  | errs ->
      invalid_arg
        (Format.asprintf "Netlist.validate: %a"
           (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp_error)
           errs)

let copy t =
  {
    circuit_name = t.circuit_name;
    kinds = Array.copy t.kinds;
    fanin = Array.map Array.copy t.fanin;
    names = Array.copy t.names;
    count = t.count;
    pi_rev = t.pi_rev;
    po_rev = t.po_rev;
    by_name = Hashtbl.copy t.by_name;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>circuit %s (%d nodes)@," t.circuit_name t.count;
  for v = 0 to t.count - 1 do
    let k =
      match t.kinds.(v) with
      | Pi -> "pi"
      | Po -> "po"
      | Gate f -> Format.asprintf "gate %a" Logic.Truthtable.pp f
    in
    let fi =
      String.concat ", "
        (Array.to_list
           (Array.map (fun (d, w) -> Printf.sprintf "%d^%d" d w) t.fanin.(v)))
    in
    Format.fprintf fmt "  %d %s [%s] %s@," v (node_name t v) fi k
  done;
  Format.fprintf fmt "@]"
