open Circuit

type report = {
  luts : int;
  depth : int;
  resyn_nodes : int;
  mdr : Graphs.Cycle_ratio.result;
}

let to_comb nl =
  let n = Netlist.n nl in
  (* comb ids: gates and PIs get one each; registered signals (driver, w)
     get a pseudo-input on demand *)
  let comb_of = Array.make n (-1) in
  let kinds = ref [] and fans = ref [] and origin = ref [] in
  let count = ref 0 in
  let fresh kind origin_pair =
    let id = !count in
    incr count;
    kinds := kind :: !kinds;
    fans := [||] :: !fans;
    origin := origin_pair :: !origin;
    id
  in
  let pseudo = Hashtbl.create 32 in
  let pseudo_in u w =
    match Hashtbl.find_opt pseudo (u, w) with
    | Some id -> id
    | None ->
        let id = fresh Comb.In (u, w) in
        Hashtbl.replace pseudo (u, w) id;
        id
  in
  (* allocate PIs and gates *)
  for v = 0 to n - 1 do
    match Netlist.kind nl v with
    | Netlist.Pi -> comb_of.(v) <- fresh Comb.In (v, 0)
    | Netlist.Gate f -> comb_of.(v) <- fresh (Comb.Gate f) (v, 0)
    | Netlist.Po -> ()
  done;
  (* wire gates; collect root drivers *)
  let kinds_arr = Array.make !count Comb.In in
  List.iteri (fun i k -> kinds_arr.(!count - 1 - i) <- k) !kinds;
  let fans_arr = Array.make !count [||] in
  let is_root = Array.make n false in
  for v = 0 to n - 1 do
    match Netlist.kind nl v with
    | Netlist.Gate _ ->
        let fi =
          Array.map
            (fun (u, w) -> if w = 0 then comb_of.(u) else pseudo_in u w)
            (Netlist.fanins nl v)
        in
        fans_arr.(comb_of.(v)) <- fi;
        Array.iter
          (fun (u, w) -> if w >= 1 && Netlist.is_gate nl u then is_root.(u) <- true)
          (Netlist.fanins nl v)
    | Netlist.Po ->
        let u, _w = (Netlist.fanins nl v).(0) in
        if Netlist.is_gate nl u then is_root.(u) <- true
    | Netlist.Pi -> ()
  done;
  (* pseudo inputs may have been created after gates; rebuild arrays *)
  let total = !count in
  let kind = Array.make total Comb.In in
  List.iteri (fun i k -> kind.(total - 1 - i) <- k) !kinds;
  let fanins = Array.make total [||] in
  Array.iteri (fun i f -> if i < Array.length fans_arr then fanins.(i) <- f) fans_arr;
  (* fans_arr was sized before pseudo inputs; copy what exists *)
  let origin_arr = Array.make total (0, 0) in
  List.iteri (fun i o -> origin_arr.(total - 1 - i) <- o) !origin;
  let roots =
    List.filter_map
      (fun v -> if is_root.(v) then Some comb_of.(v) else None)
      (List.init n Fun.id)
  in
  let comb = { Comb.kind; fanins; roots } in
  Comb.validate comb;
  (comb, origin_arr)

let map_sequential ?(resynthesize = false) ?(cmax = 15) ?(exhaustive = false)
    ?(jobs = 1) nl ~k =
  if jobs <> 1 then invalid_arg "Flowsyn.map_sequential: jobs must be 1";
  Netlist.validate_exn ~k nl;
  let comb, origin = to_comb nl in
  let res = Labels.compute ~resynthesize ~cmax ~exhaustive comb ~k in
  let mapped = Mapper.generate comb res in
  (* reassemble a sequential netlist *)
  let out = Netlist.create ~name:(Netlist.name nl ^ "_mapped") () in
  let n = Netlist.n nl in
  let new_pi = Array.make n (-1) in
  List.iter
    (fun p -> new_pi.(p) <- Netlist.add_pi ~name:(Netlist.node_name nl p) out)
    (Netlist.pis nl);
  (* reserve one gate per mapped LUT node, named after the original signal
     it computes (needed for name-based equivalence checking and BLIF
     output); decomposition-tree intermediates get a '_syn' name *)
  let mn = Comb.n mapped.Mapper.comb in
  let lut_name = Array.make mn None in
  Array.iteri
    (fun orig_comb m ->
      if m >= 0 && comb.Comb.kind.(orig_comb) <> Comb.In then
        let u, _ = origin.(orig_comb) in
        if lut_name.(m) = None then lut_name.(m) <- Some (Netlist.node_name nl u))
    mapped.Mapper.node_of;
  let new_node = Array.make mn (-1) in
  for m = 0 to mn - 1 do
    match mapped.Mapper.comb.Comb.kind.(m) with
    | Comb.Gate _ ->
        let name =
          match lut_name.(m) with
          | Some n -> n
          | None -> Printf.sprintf "_syn%d" m
        in
        new_node.(m) <- Netlist.reserve_gate ~name out
    | Comb.In -> ()
  done;
  (* a mapped In node corresponds to an original (driver, weight) pair;
     find the original comb node of each mapped node to read its origin *)
  let origin_of_mapped = Array.make mn (0, 0) in
  Array.iteri
    (fun orig_comb m ->
      (* only input nodes define mapped-In origins: a gate may share its
         mapped node with an input when its cone collapsed to a projection *)
      if m >= 0 && comb.Comb.kind.(orig_comb) = Comb.In then
        origin_of_mapped.(m) <- origin.(orig_comb))
    mapped.Mapper.node_of;
  (* comb id of each original gate, to locate its mapped LUT *)
  let comb_of_gate = Hashtbl.create 64 in
  Array.iteri
    (fun comb_id (u, w) ->
      if w = 0 then Hashtbl.replace comb_of_gate u comb_id)
    origin;
  (* gates realized as register rings, see [resolve_driver] *)
  let ring_lut = Hashtbl.create 4 in
  let rec resolve_driver ?(seen = []) u w =
    (* netlist-level driver for signal (u, w) in the mapped circuit;
       [seen]: the gates chased so far, with their accumulated delays *)
    match Netlist.kind nl u with
    | Netlist.Pi -> (new_pi.(u), w)
    | Netlist.Gate _ -> (
        let cid = Hashtbl.find comb_of_gate u in
        let m = mapped.Mapper.node_of.(cid) in
        if m < 0 then invalid_arg "Flowsyn: registered driver was not mapped";
        if new_node.(m) >= 0 then (new_node.(m), w)
        else
          match (Hashtbl.find_opt ring_lut u, List.assoc_opt u seen) with
          | Some g, _ -> (g, w)
          | None, Some w0 ->
              (* the chase came back to [u] [w - w0] registers later: [u]
                 is a delayed copy of itself, a register ring with no
                 logic.  Realize it as [Seqmap.Mapgen] realizes a
                 projection root, one identity LUT named after [u],
                 carrying the ring's register count *)
              let g = Netlist.reserve_gate ~name:(Netlist.node_name nl u) out in
              Netlist.define_gate out g (Logic.Truthtable.var 1 0)
                [| (g, w - w0) |];
              Hashtbl.replace ring_lut u g;
              (g, w0)
          | None, None ->
              (* the gate's mapping collapsed to a projection of one of its
                 inputs (a resynthesized cone whose tree root is an Input):
                 chase the origin, accumulating delays *)
              let u', w' = origin_of_mapped.(m) in
              resolve_driver ~seen:((u, w) :: seen) u' (w' + w))
    | Netlist.Po -> assert false
  in
  let resolve_fanin m =
    match mapped.Mapper.comb.Comb.kind.(m) with
    | Comb.Gate _ -> (new_node.(m), 0)
    | Comb.In ->
        let u, w = origin_of_mapped.(m) in
        resolve_driver u w
  in
  for m = 0 to mn - 1 do
    match mapped.Mapper.comb.Comb.kind.(m) with
    | Comb.Gate f ->
        let fi = Array.map resolve_fanin mapped.Mapper.comb.Comb.fanins.(m) in
        Netlist.define_gate out new_node.(m) f fi
    | Comb.In -> ()
  done;
  List.iter
    (fun po ->
      let u, w = (Netlist.fanins nl po).(0) in
      let d, w' = resolve_driver u w in
      ignore (Netlist.add_po ~name:(Netlist.node_name nl po) out ~driver:d ~weight:w'))
    (Netlist.pos nl);
  Netlist.validate_exn ~k out;
  let report =
    {
      luts = mapped.Mapper.luts;
      depth = mapped.Mapper.depth;
      resyn_nodes = res.Labels.resyn_nodes;
      mdr = Netlist.mdr_ratio out;
    }
  in
  (out, report)
