open Circuit

type report = {
  resyn_nodes : int;
  mdr : Graphs.Cycle_ratio.result;
}

let to_comb nl =
  let n = Netlist.n nl in
  (* comb ids: gates and PIs get one each; registered signals (driver, w)
     get a pseudo-input on demand *)
  let comb_of = Array.make n (-1) in
  let kinds = ref [] and origin = ref [] in
  let count = ref 0 in
  let fresh kind origin_pair =
    let id = !count in
    incr count;
    kinds := kind :: !kinds;
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
  (* wire gates *)
  let fans_arr = Array.make !count [||] in
  for v = 0 to n - 1 do
    match Netlist.kind nl v with
    | Netlist.Gate _ ->
        let fi =
          Array.map
            (fun (u, w) -> if w = 0 then comb_of.(u) else pseudo_in u w)
            (Netlist.fanins nl v)
        in
        fans_arr.(comb_of.(v)) <- fi
    | Netlist.Pi | Netlist.Po -> ()
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
  let comb = { Comb.kind; fanins } in
  Comb.validate comb;
  (comb, origin_arr)

let map_sequential ?(resynthesize = false) ?(cmax = 15) ?(exhaustive = false)
    ?(jobs = 1) nl ~k =
  if jobs <> 1 then invalid_arg "Flowsyn.map_sequential: jobs must be 1";
  Netlist.validate_exn ~k nl;
  let comb, origin = to_comb nl in
  let res = Labels.compute ~resynthesize ~cmax ~exhaustive comb ~k in
  (* a comb id's origin [(driver, registers)] is the sequential cut pair
     it stands for, so each gate's implementation carries over to the
     netlist, and [Mapgen] reconnects the flip-flops as edge weights *)
  let pairs = Array.map (fun c -> origin.(c)) in
  let impls = Array.make (Netlist.n nl) None in
  Array.iteri
    (fun c -> function
      | Some (Labels.Cut cut) ->
          impls.(fst origin.(c)) <- Some (Seqmap.Label_engine.Cut (pairs cut))
      | Some (Labels.Resyn (tree, inputs)) ->
          impls.(fst origin.(c)) <-
            Some (Seqmap.Label_engine.Resyn (tree, pairs inputs))
      | None -> ())
    res.Labels.impls;
  let out = Seqmap.Mapgen.generate nl ~impls in
  Netlist.validate_exn ~k out;
  (out, { resyn_nodes = res.Labels.resyn_nodes; mdr = Netlist.mdr_ratio out })
