(* Tests for FlowMap/FlowSYN: label optimality vs brute-force cut
   enumeration, mapping correctness of acyclic netlists (symbolic),
   FlowSYN depth wins, and sequential mapping (simulation equivalence). *)

open Logic
open Flowmap

let mk_comb kinds fanins =
  { Comb.kind = Array.of_list kinds; fanins = Array.of_list fanins }

(* balanced and-tree over 2^levels inputs *)
let and_tree levels =
  let nins = 1 lsl levels in
  let kinds = ref [] and fanins = ref [] in
  let count = ref 0 in
  let fresh k f =
    kinds := !kinds @ [ k ];
    fanins := !fanins @ [ f ];
    let id = !count in
    incr count;
    id
  in
  let layer = ref (List.init nins (fun _ -> fresh Comb.In [||])) in
  while List.length !layer > 1 do
    let rec pair = function
      | a :: b :: rest ->
          fresh (Comb.Gate (Truthtable.and_all 2)) [| a; b |] :: pair rest
      | rest -> rest
    in
    layer := pair !layer
  done;
  let root = List.hd !layer in
  (mk_comb !kinds !fanins, root)

(* The acyclic netlist of a comb whose fanin ids all precede their
   gate's id: [In] nodes become PIs, gates gates, [roots] POs. *)
let netlist_of_comb t ~roots =
  let open Circuit in
  let nl = Netlist.create () in
  let id = Array.make (Comb.n t) (-1) in
  Array.iteri
    (fun v kind ->
      id.(v) <-
        (match kind with
        | Comb.In -> Netlist.add_pi nl
        | Comb.Gate f ->
            Netlist.add_gate nl f
              (Array.map (fun u -> (id.(u), 0)) t.Comb.fanins.(v))))
    t.Comb.kind;
  List.iter
    (fun r -> ignore (Netlist.add_po nl ~driver:id.(r) ~weight:0))
    roots;
  nl

(* BDD of every primary output over the primary inputs (variable [i] is
   the [i]-th PI) of a register-free netlist. *)
let po_bdds man nl =
  let open Circuit in
  let memo = Hashtbl.create 64 in
  List.iteri (fun i p -> Hashtbl.replace memo p (Bdd.var man i)) (Netlist.pis nl);
  let rec go (u, w) =
    if w <> 0 then invalid_arg "po_bdds: registered edge";
    match Hashtbl.find_opt memo u with
    | Some b -> b
    | None ->
        let b =
          match Netlist.kind nl u with
          | Netlist.Gate f ->
              Bdd.apply_truthtable man f (Array.map go (Netlist.fanins nl u))
          | Netlist.Pi | Netlist.Po -> assert false
        in
        Hashtbl.replace memo u b;
        b
  in
  List.map (fun po -> go (Netlist.fanins nl po).(0)) (Netlist.pos nl)

(* Exact check of [Flowsyn.map_sequential] on an acyclic netlist: the
   mapping is K-bounded, register-free, and every primary output computes
   the same function of the primary inputs. *)
let maps_exactly ?(resynthesize = false) nl ~k =
  let open Circuit in
  let mapped, _ = Flowsyn.map_sequential ~resynthesize nl ~k in
  let man = Bdd.new_man () in
  List.for_all
    (fun g -> Array.length (Netlist.fanins mapped g) <= k)
    (Netlist.gates mapped)
  && List.for_all2 Bdd.equal (po_bdds man nl) (po_bdds man mapped)

let test_flowmap_tree () =
  (* 8-input and tree: K=2 gives depth 3; K=4 gives depth 2; K=8 would
     give 1 but K is capped at 6 -> depth 2 *)
  let t, root = and_tree 3 in
  let r2 = Labels.compute t ~k:2 in
  Alcotest.(check int) "k=2 depth 3" 3 r2.Labels.labels.(root);
  let r4 = Labels.compute t ~k:4 in
  Alcotest.(check int) "k=4 depth 2" 2 r4.Labels.labels.(root)

(* brute-force optimal-depth mapping via exhaustive cut enumeration *)
let brute_depth t ~k root =
  let n = Comb.n t in
  (* enumerate K-feasible cuts of v (sets of nodes covering v's cone) *)
  let cuts_memo = Array.make n None in
  let rec cuts v =
    match cuts_memo.(v) with
    | Some c -> c
    | None ->
        let c =
          match t.Comb.kind.(v) with
          | Comb.In -> [ [ v ] ]
          | Comb.Gate _ ->
              let fanin_cuts =
                Array.to_list (Array.map (fun u -> [ u ] :: cuts u) t.Comb.fanins.(v))
              in
              (* cartesian merge, keep sets of size <= k *)
              let merged =
                List.fold_left
                  (fun acc cu ->
                    List.concat_map
                      (fun partial ->
                        List.filter_map
                          (fun c ->
                            let s = List.sort_uniq compare (partial @ c) in
                            if List.length s <= k then Some s else None)
                          cu)
                      acc)
                  [ [] ] fanin_cuts
              in
              List.sort_uniq compare merged
        in
        cuts_memo.(v) <- Some c;
        c
  in
  let depth_memo = Array.make n (-1) in
  let rec depth v =
    if depth_memo.(v) >= 0 then depth_memo.(v)
    else begin
      let d =
        match t.Comb.kind.(v) with
        | Comb.In -> 0
        | Comb.Gate _ ->
            List.fold_left
              (fun best cut ->
                if List.mem v cut then best
                else
                  let d = 1 + List.fold_left (fun a u -> max a (depth u)) 0 cut in
                  min best d)
              max_int (cuts v)
      in
      depth_memo.(v) <- d;
      d
    end
  in
  depth root

let qcheck_flowmap_optimal =
  let open QCheck in
  (* small random K-bounded DAGs *)
  let gen =
    Gen.(
      let* nin = int_range 2 4 in
      let* ngates = int_range 2 8 in
      let* seeds = list_repeat ngates (pair Gen.int64 (list_size (int_range 1 3) Gen.int)) in
      return (nin, ngates, seeds))
  in
  let build (nin, _ngates, seeds) =
    let kinds = ref [] and fanins = ref [] in
    let count = ref 0 in
    let fresh k f =
      kinds := !kinds @ [ k ];
      fanins := !fanins @ [ f ];
      let id = !count in
      incr count;
      id
    in
    for _ = 1 to nin do
      ignore (fresh Comb.In [||])
    done;
    List.iter
      (fun (bits, srcs) ->
        let srcs = List.map (fun s -> abs s mod !count) srcs in
        let srcs = List.sort_uniq compare srcs in
        let arity = List.length srcs in
        let tt = Truthtable.create arity bits in
        ignore (fresh (Comb.Gate tt) (Array.of_list srcs)))
      seeds;
    (mk_comb !kinds !fanins, !count - 1)
  in
  [
    Test.make ~name:"flowmap labels are optimal depths" ~count:150
      (make ~print:(fun _ -> "comb dag") gen)
      (fun input ->
        let t, root = build input in
        let res = Labels.compute t ~k:3 in
        (match t.Comb.kind.(root) with
        | Comb.In -> true
        | Comb.Gate _ ->
            res.Labels.labels.(root) = brute_depth t ~k:3 root));
  ]

let qcheck_mapper_correct =
  let open QCheck in
  let gen =
    Gen.(
      let* nin = int_range 2 5 in
      let* ngates = int_range 2 10 in
      let* seeds =
        list_repeat ngates (pair Gen.int64 (list_size (int_range 1 4) Gen.int))
      in
      return (nin, ngates, seeds))
  in
  let build (nin, _, seeds) =
    let kinds = ref [] and fanins = ref [] in
    let count = ref 0 in
    let fresh k f =
      kinds := !kinds @ [ k ];
      fanins := !fanins @ [ f ];
      let id = !count in
      incr count;
      id
    in
    for _ = 1 to nin do
      ignore (fresh Comb.In [||])
    done;
    List.iter
      (fun (bits, srcs) ->
        let srcs = List.sort_uniq compare (List.map (fun s -> abs s mod !count) srcs) in
        let tt = Truthtable.create (List.length srcs) bits in
        ignore (fresh (Comb.Gate tt) (Array.of_list srcs)))
      seeds;
    (mk_comb !kinds !fanins, !count - 1)
  in
  [
    Test.make ~name:"mapped networks are equivalent and k-bounded" ~count:150
      (make ~print:(fun _ -> "comb dag") gen)
      (fun input ->
        let t, root = build input in
        maps_exactly ~resynthesize:true (netlist_of_comb t ~roots:[ root ]) ~k:4);
  ]

let test_flowsyn_beats_flowmap_on_xor_wall () =
  (* a wide xor wall: xor of 7 inputs built as a K-bounded gate chain;
     FlowMap with k=4 needs depth 2; resynthesis cannot beat the
     combinational limit here, so instead test a function where resyn
     saves depth: 6-input xor of ands, classic FlowSYN win *)
  let kinds =
    [ Comb.In; Comb.In; Comb.In; Comb.In; Comb.In; Comb.In; Comb.In;
      Comb.Gate (Truthtable.xor_all 2); Comb.Gate (Truthtable.xor_all 2);
      Comb.Gate (Truthtable.xor_all 2); Comb.Gate (Truthtable.xor_all 2);
      Comb.Gate (Truthtable.xor_all 2); Comb.Gate (Truthtable.xor_all 2) ]
  in
  let fanins =
    [ [||]; [||]; [||]; [||]; [||]; [||]; [||];
      [| 0; 1 |]; [| 7; 2 |]; [| 8; 3 |]; [| 9; 4 |]; [| 10; 5 |]; [| 11; 6 |] ]
  in
  let t = mk_comb kinds fanins in
  Comb.validate t;
  let plain = Labels.compute t ~k:4 in
  let resyn = Labels.compute ~resynthesize:true t ~k:4 in
  Alcotest.(check bool) "resyn at least as good" true
    (resyn.Labels.labels.(12) <= plain.Labels.labels.(12));
  Alcotest.(check bool) "verified" true
    (maps_exactly ~resynthesize:true (netlist_of_comb t ~roots:[ 12 ]) ~k:4)

let random_sequential rng ngates =
  let open Circuit in
  let nl = Netlist.create () in
  let pis = List.init 3 (fun i -> Netlist.add_pi ~name:(Printf.sprintf "x%d" i) nl) in
  let nodes = ref (Array.of_list pis) in
  for _ = 1 to ngates do
    let k = 1 + Prelude.Rng.int rng 3 in
    let fanins =
      Array.init k (fun _ ->
          (Prelude.Rng.pick rng !nodes, if Prelude.Rng.int rng 4 = 0 then 1 else 0))
    in
    (* distinct drivers not required by netlist, but keep as-is *)
    let tt = Truthtable.random_nondegenerate rng k in
    let g = Netlist.add_gate nl tt fanins in
    nodes := Array.append !nodes [| g |]
  done;
  for i = 0 to 1 do
    ignore
      (Netlist.add_po ~name:(Printf.sprintf "y%d" i) nl
         ~driver:(Prelude.Rng.pick rng !nodes) ~weight:0)
  done;
  nl

let test_map_sequential_equiv () =
  let rng = Prelude.Rng.create 314 in
  for iter = 1 to 15 do
    let nl = random_sequential rng 15 in
    List.iter
      (fun resynthesize ->
        let mapped, _ = Flowsyn.map_sequential ~resynthesize nl ~k:4 in
        Alcotest.(check bool)
          (Printf.sprintf "iter %d resyn=%b equivalent" iter resynthesize)
          true
          (Sim.Equiv.io_equal ~cycles:48 ~runs:4 rng nl mapped))
      [ false; true ]
  done

let test_map_sequential_with_registered_po () =
  let open Circuit in
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let g = Build.not_ nl x in
  ignore (Netlist.add_po nl ~driver:g ~weight:2);
  let mapped, _ = Flowsyn.map_sequential nl ~k:4 in
  let rng = Prelude.Rng.create 4 in
  Alcotest.(check bool) "registered po" true (Sim.Equiv.io_equal rng nl mapped)

let test_to_comb_pseudo_inputs () =
  let open Circuit in
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let a = Build.not_ nl x in
  let b = Build.buf ~w:1 nl a in
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  let comb, origin = Flowsyn.to_comb nl in
  (* one pseudo input for (a, 1) *)
  let pseudo =
    Array.to_list origin
    |> List.filteri (fun i _ -> comb.Comb.kind.(i) = Comb.In)
    |> List.filter (fun (_, w) -> w > 0)
  in
  Alcotest.(check (list (pair int int))) "pseudo input" [ (a, 1) ] pseudo

let () =
  Alcotest.run "flowmap"
    [
      ( "labels",
        [
          Alcotest.test_case "and tree" `Quick test_flowmap_tree;
          Alcotest.test_case "resyn xor wall" `Quick
            test_flowsyn_beats_flowmap_on_xor_wall;
        ] );
      ("labels-props", List.map QCheck_alcotest.to_alcotest qcheck_flowmap_optimal);
      ("mapper-props", List.map QCheck_alcotest.to_alcotest qcheck_mapper_correct);
      ( "flowsyn",
        [
          Alcotest.test_case "sequential equivalence" `Quick
            test_map_sequential_equiv;
          Alcotest.test_case "registered po" `Quick
            test_map_sequential_with_registered_po;
          Alcotest.test_case "to_comb pseudo inputs" `Quick
            test_to_comb_pseudo_inputs;
        ] );
    ]
