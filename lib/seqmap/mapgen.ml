open Circuit

(* Unroll the circuit from (root, 0), stopping at cut pairs.  [wmax]
   bounds the registers a path may accumulate: an invalid cut on a
   registered cycle would unroll forever. *)
let cut_bdd man nl ~wmax ~root ~cut ~vars =
  let cut_pos = Hashtbl.create 8 in
  Array.iteri (fun j (u, w) -> Hashtbl.replace cut_pos (u, w) j) cut;
  let memo = Hashtbl.create 64 in
  let rec go u w =
    if w > wmax then invalid_arg "Mapgen.cut_function: cut does not cover a path";
    match Hashtbl.find_opt cut_pos (u, w) with
    | Some j -> Bdd.var man vars.(j)
    | None -> (
        match Hashtbl.find_opt memo (u, w) with
        | Some b -> b
        | None ->
            let b =
              match Netlist.kind nl u with
              | Netlist.Pi | Netlist.Po ->
                  invalid_arg "Mapgen.cut_function: cut does not cover a path"
              | Netlist.Gate f ->
                  Bdd.apply_truthtable man f
                    (Array.map
                       (fun (x, we) -> go x (w + we))
                       (Netlist.fanins nl u))
            in
            Hashtbl.replace memo (u, w) b;
            b
  )
  in
  go root 0

let cut_function nl =
  let wmax =
    Array.fold_left
      (fun acc e -> acc + e.Graphs.Cycle_ratio.weight)
      (Netlist.n nl + 8)
      (Netlist.retiming_edges nl)
  in
  fun ~root ~cut ->
    let k = Array.length cut in
    if k > Logic.Truthtable.max_arity then
      invalid_arg "Mapgen.cut_function: width";
    let man = Bdd.new_man () in
    let vars = Array.init k Fun.id in
    let f = cut_bdd man nl ~wmax ~root ~cut ~vars in
    Bdd.to_truthtable man f vars

type memo = (int * (int * int) array, Logic.Truthtable.t * (int * int) array) Hashtbl.t

let new_memo () : memo = Hashtbl.create 256

let generate ?(memo = new_memo ()) nl ~impls =
  let n = Netlist.n nl in
  let cut_function = cut_function nl in
  (* collect the needed gates *)
  let needed = Array.make n false in
  let work = Queue.create () in
  let need u =
    if Netlist.is_gate nl u && not needed.(u) then begin
      needed.(u) <- true;
      Queue.add u work
    end
  in
  List.iter
    (fun po ->
      let d, _ = (Netlist.fanins nl po).(0) in
      need d)
    (Netlist.pos nl);
  while not (Queue.is_empty work) do
    let v = Queue.pop work in
    match impls.(v) with
    | None -> invalid_arg "Mapgen.generate: missing implementation"
    | Some (Label_engine.Cut cut) -> Array.iter (fun (u, _) -> need u) cut
    | Some (Label_engine.Resyn (_, inputs)) ->
        Array.iter (fun (u, _) -> need u) inputs
  done;
  (* build the result *)
  let out = Netlist.create ~name:(Netlist.name nl ^ "_mapped") () in
  let new_pi = Array.make n (-1) in
  List.iter
    (fun p -> new_pi.(p) <- Netlist.add_pi ~name:(Netlist.node_name nl p) out)
    (Netlist.pis nl);
  let new_gate = Array.make n (-1) in
  for v = 0 to n - 1 do
    if needed.(v) then
      new_gate.(v) <- Netlist.reserve_gate ~name:(Netlist.node_name nl v) out
  done;
  let driver_of u =
    match Netlist.kind nl u with
    | Netlist.Pi -> new_pi.(u)
    | Netlist.Gate _ ->
        assert (new_gate.(u) >= 0);
        new_gate.(u)
    | Netlist.Po -> assert false
  in
  for v = 0 to n - 1 do
    if needed.(v) then
      match impls.(v) with
      | None -> assert false
      | Some (Label_engine.Cut cut) ->
          let tt, cut =
            match Hashtbl.find_opt memo (v, cut) with
            | Some lut -> lut
            | None ->
                let tt = cut_function ~root:v ~cut in
                (* the cut function may not depend on every cut signal *)
                let tt, sup = Logic.Truthtable.shrink_support tt in
                let lut = (tt, Array.of_list (List.map (fun j -> cut.(j)) sup)) in
                Hashtbl.add memo (v, cut) lut;
                lut
          in
          let fanins = Array.map (fun (u, w) -> (driver_of u, w)) cut in
          Netlist.define_gate out new_gate.(v) tt fanins
      | Some (Label_engine.Resyn (tree, inputs)) -> (
          (* instantiate the LUT tree bottom-up; Input i refers to
             inputs.(i) = (driver, weight) *)
          let rec build t =
            match t with
            | Decomp.Decompose.Input i ->
                let u, w = inputs.(i) in
                (driver_of u, w)
            | Decomp.Decompose.Lut (tt, fs) ->
                let fanins = Array.map build fs in
                let name = Printf.sprintf "_syn%d" (Netlist.n out) in
                (Netlist.add_gate ~name out tt fanins, 0)
          in
          match tree with
          | Decomp.Decompose.Input i ->
              (* the root is a plain (possibly delayed) copy of an input:
                 realize it as a 1-input identity LUT to keep one node per
                 mapped signal *)
              let u, w = inputs.(i) in
              Netlist.define_gate out new_gate.(v)
                (Logic.Truthtable.var 1 0)
                [| (driver_of u, w) |]
          | Decomp.Decompose.Lut (tt, fs) ->
              let fanins = Array.map build fs in
              Netlist.define_gate out new_gate.(v) tt fanins)
  done;
  List.iter
    (fun po ->
      let d, w = (Netlist.fanins nl po).(0) in
      ignore
        (Netlist.add_po ~name:(Netlist.node_name nl po) out ~driver:(driver_of d)
           ~weight:w))
    (Netlist.pos nl);
  out

let lut_count nl = List.length (Netlist.gates nl)
