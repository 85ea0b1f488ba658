(* Tests for retiming and pipelining, cross-checked against brute-force lag
   enumeration on small circuits. *)

open Circuit
open Retime

(* chain of [k] unit gates from a PI to a PO, no registers *)
let chain k =
  let nl = Netlist.create ~name:"chain" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let prev = ref x in
  for _ = 1 to k do
    prev := Build.buf nl !prev
  done;
  ignore (Netlist.add_po ~name:"y" nl ~driver:!prev ~weight:0);
  nl

(* ring of [k] gates with [w] registers spread on the loop, tapped to a PO *)
let ring k w =
  let nl = Netlist.create ~name:"ring" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let first = Netlist.reserve_gate ~name:"g0" nl in
  let prev = ref first in
  for i = 1 to k - 1 do
    let wi = if i <= w then 1 else 0 in
    prev := Build.buf ~name:(Printf.sprintf "g%d" i) ~w:wi nl !prev
  done;
  (* close the loop through an xor with the PI *)
  Netlist.define_gate nl first (Logic.Truthtable.xor_all 2)
    [| (x, 0); (!prev, if w >= k then 1 else 0) |];
  ignore (Netlist.add_po ~name:"y" nl ~driver:!prev ~weight:0);
  nl

let test_clock_period_chain () =
  Alcotest.(check int) "chain 5" 5 (Retiming.clock_period (chain 5));
  Alcotest.(check int) "chain 1" 1 (Retiming.clock_period (chain 1))

let test_clock_period_registered () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let a = Build.buf nl x in
  let b = Build.buf ~w:1 nl a in
  let c = Build.buf nl b in
  ignore (Netlist.add_po nl ~driver:c ~weight:0);
  (* paths: x-a (1), b-c (2 gates? b then c): delta(c)=2 *)
  Alcotest.(check int) "split by register" 2 (Retiming.clock_period nl)

let test_legal_apply () =
  let nl = ring 4 2 in
  let n = Netlist.n nl in
  let r = Array.make n 0 in
  Alcotest.(check bool) "zero legal" true (Retiming.legal nl ~r);
  let nl2 = Retiming.apply nl ~r in
  Alcotest.(check int) "identity retiming keeps period"
    (Retiming.clock_period nl) (Retiming.clock_period nl2);
  (* an illegal retiming: pull a register off an edge that has none *)
  (match Netlist.find_by_name nl "g1" with
  | Some g ->
      let r_bad = Array.make n 0 in
      r_bad.(g) <- -1;
      (* g1's fanin edge g0 -> g1 has weight 1, output edge weight 0;
         r(g1) = -1 makes the outgoing edge weight -1? incoming 1-1=0 ok,
         outgoing w + r(next) - r(g1) = 0 + 0 + 1 = 1: actually legal;
         use +1 against the zero-weight incoming edge of the PO instead *)
      ignore r_bad
  | None -> ());
  let r_bad = Array.make n 0 in
  (* PO driver g3 feeds PO with weight 0; lowering its lag makes it -1 *)
  (match Netlist.find_by_name nl "g3" with
  | Some g ->
      r_bad.(g) <- 1;
      (* outgoing edge to PO: 0 + 0 - 1 = -1 -> illegal *)
      Alcotest.(check bool) "illegal detected" false (Retiming.legal nl ~r:r_bad);
      Alcotest.check_raises "apply rejects"
        (Invalid_argument "Retiming.apply: illegal retiming") (fun () ->
          ignore (Retiming.apply nl ~r:r_bad))
  | None -> Alcotest.fail "no g3")

let test_min_period_ring () =
  (* 4 gates, 2 registers on the loop: optimum period 2 *)
  let nl = ring 4 2 in
  let p0 = Retiming.clock_period nl in
  Alcotest.(check bool) "initial worse" true (p0 > 2);
  let p, r = Retiming.min_period nl in
  Alcotest.(check int) "optimal period 2" 2 p;
  let nl2 = Retiming.apply nl ~r in
  Alcotest.(check int) "achieved" 2 (Retiming.clock_period nl2);
  (* PIs and POs stay put *)
  List.iter (fun v -> Alcotest.(check int) "pi lag" 0 r.(v)) (Netlist.pis nl);
  List.iter (fun v -> Alcotest.(check int) "po lag" 0 r.(v)) (Netlist.pos nl)

let test_min_period_chain_pure () =
  (* pure retiming cannot improve a register-free chain *)
  let nl = chain 4 in
  let p, _ = Retiming.min_period nl in
  Alcotest.(check int) "still 4" 4 p

(* brute force minimum period over small lag ranges *)
let brute_min_period nl range =
  let n = Netlist.n nl in
  let fixed =
    Array.init n (fun v ->
        match Netlist.kind nl v with
        | Netlist.Pi | Netlist.Po -> true
        | Netlist.Gate _ -> false)
  in
  let free = List.filter (fun v -> not fixed.(v)) (List.init n Fun.id) in
  let best = ref max_int in
  let r = Array.make n 0 in
  let rec go = function
    | [] ->
        if Retiming.legal nl ~r then begin
          let nl2 = Retiming.apply nl ~r in
          match Retiming.delta nl2 ~weight:(fun v j -> snd (Netlist.fanins nl2 v).(j)) with
          | Some dl -> best := min !best (Array.fold_left max 0 dl)
          | None -> ()
        end
    | v :: rest ->
        for lag = -range to range do
          r.(v) <- lag;
          go rest
        done;
        r.(v) <- 0
  in
  go free;
  !best

let test_min_period_matches_brute_force () =
  let rng = Prelude.Rng.create 99 in
  for iter = 1 to 20 do
    (* random small sequential circuit: 4 gates, random weights *)
    let nl = Netlist.create () in
    let x = Netlist.add_pi nl in
    let nodes = ref [ x ] in
    for _ = 1 to 4 do
      let arr = Array.of_list !nodes in
      let a = Prelude.Rng.pick rng arr and b = Prelude.Rng.pick rng arr in
      let g =
        Build.xor2 ~wa:(Prelude.Rng.int rng 2) ~wb:(Prelude.Rng.int rng 2) nl a b
      in
      nodes := g :: !nodes
    done;
    (* feedback edge to make it sequential: rewire first gate *)
    ignore (Netlist.add_po nl ~driver:(List.hd !nodes) ~weight:0);
    let p, r = Retiming.min_period nl in
    let brute = brute_min_period nl 2 in
    Alcotest.(check int) (Printf.sprintf "iter %d" iter) brute p;
    let nl2 = Retiming.apply nl ~r in
    Alcotest.(check int)
      (Printf.sprintf "achieved %d" iter)
      p
      (Retiming.clock_period nl2)
  done

let test_pipeline_chain () =
  let nl = chain 5 in
  (match Pipeline.period_lower_bound nl with
  | `Period p -> Alcotest.(check int) "acyclic bound 1" 1 p
  | `Infinite -> Alcotest.fail "not infinite");
  let p, r = Pipeline.min_period nl in
  Alcotest.(check int) "pipelined to 1" 1 p;
  let nl2 = Retiming.apply nl ~r in
  Alcotest.(check int) "achieved 1" 1 (Retiming.clock_period nl2);
  (* 5 gates at period 1 need 4 register stages between them; the PO reads
     the last gate combinationally *)
  Alcotest.(check int) "latency 4" 4 (Pipeline.latency nl ~r)

let test_pipeline_ring () =
  (* loop of 4 gates / 2 FFs: loop bound ceil(4/2) = 2 even with pipelining *)
  let nl = ring 4 2 in
  let p, r = Pipeline.min_period nl in
  Alcotest.(check int) "loop bound 2" 2 p;
  let nl2 = Retiming.apply nl ~r in
  Alcotest.(check bool) "achieved at most 2" true (Retiming.clock_period nl2 <= 2);
  Alcotest.(check bool) "below bound impossible" true
    (Pipeline.retime_to_period nl ~period:1 = None)

let test_pipeline_comb_loop () =
  let nl = Netlist.create () in
  let a = Netlist.reserve_gate nl in
  let b = Build.buf nl a in
  Netlist.define_gate nl a (Logic.Truthtable.var 1 0) [| (b, 0) |];
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  Alcotest.(check bool) "infinite" true (Pipeline.period_lower_bound nl = `Infinite);
  Alcotest.check_raises "min_period raises"
    (Invalid_argument "Pipeline.min_period: combinational loop") (fun () ->
      ignore (Pipeline.min_period nl))

let test_pipeline_matches_mdr () =
  let rng = Prelude.Rng.create 7 in
  for iter = 1 to 20 do
    let nl = Netlist.create () in
    let x = Netlist.add_pi nl in
    let nodes = ref [ x ] in
    let gates = ref [] in
    for _ = 1 to 6 do
      let arr = Array.of_list !nodes in
      let a = Prelude.Rng.pick rng arr and b = Prelude.Rng.pick rng arr in
      let g = Build.xor2 ~wa:(Prelude.Rng.int rng 2) nl a b in
      nodes := g :: !nodes;
      gates := g :: !gates
    done;
    (* add one feedback with a register to make loops likely *)
    (match !gates with
    | last :: _ ->
        let first = List.nth !gates (List.length !gates - 1) in
        Netlist.set_fanins nl first
          (let f = Netlist.fanins nl first in
           [| f.(0); (last, 1) |])
    | [] -> ());
    ignore (Netlist.add_po nl ~driver:(List.hd !nodes) ~weight:0);
    match Pipeline.period_lower_bound nl with
    | `Infinite -> ()
    | `Period p ->
        let expect =
          match Netlist.mdr_ratio nl with
          | Graphs.Cycle_ratio.Ratio r -> max 1 (Prelude.Rat.ceil r)
          | Graphs.Cycle_ratio.No_cycle -> 1
          | Graphs.Cycle_ratio.Infinite -> -1
        in
        Alcotest.(check int) (Printf.sprintf "bound matches mdr %d" iter) expect p;
        let p2, r = Pipeline.min_period nl in
        Alcotest.(check int) "constructed" p p2;
        let nl2 = Retiming.apply nl ~r in
        Alcotest.(check bool)
          (Printf.sprintf "achieved %d" iter)
          true
          (Retiming.clock_period nl2 <= p)
  done

let test_ff_count () =
  let nl = ring 4 2 in
  let r0 = Array.make (Netlist.n nl) 0 in
  let s = Netlist.stats nl in
  Alcotest.(check int) "matches stats" s.Netlist.n_ff (Retiming.ff_count nl ~r:r0)

let test_minimize_ffs () =
  let rng = Prelude.Rng.create 21 in
  for _ = 1 to 10 do
    (* random sequential circuit, pipelined to its loop bound; FF
       minimization must not break legality or the period and must not
       increase the register count *)
    let nl = Netlist.create () in
    let x = Netlist.add_pi nl in
    let nodes = ref [ x ] in
    for _ = 1 to 8 do
      let arr = Array.of_list !nodes in
      let g =
        Build.xor2 ~wa:(Prelude.Rng.int rng 2) ~wb:(Prelude.Rng.int rng 2) nl
          (Prelude.Rng.pick rng arr) (Prelude.Rng.pick rng arr)
      in
      nodes := g :: !nodes
    done;
    ignore (Netlist.add_po nl ~driver:(List.hd !nodes) ~weight:0);
    match Pipeline.period_lower_bound nl with
    | `Infinite -> ()
    | `Period _ ->
        let period, r = Pipeline.min_period nl in
        let before = Retiming.ff_count nl ~r in
        let r' = Retiming.minimize_ffs nl ~period ~r in
        Alcotest.(check (array int))
          "lags match the whole-circuit reference"
          (Ffmin_reference.reference_minimize_ffs nl ~period ~r)
          r';
        Alcotest.(check bool) "legal" true (Retiming.legal nl ~r:r');
        let after = Retiming.ff_count nl ~r:r' in
        Alcotest.(check bool)
          (Printf.sprintf "ffs %d <= %d" after before)
          true (after <= before);
        let applied = Retiming.apply nl ~r:r' in
        Alcotest.(check bool) "period kept" true
          (Retiming.clock_period applied <= period);
        (* PO lags untouched: latency identical *)
        Alcotest.(check int) "latency unchanged"
          (Pipeline.latency nl ~r)
          (Pipeline.latency nl ~r:r')
  done

(* The local checks of [minimize_ffs] against the whole-circuit reference
   on generated sequential circuits, pipelined to their loop bound. *)
let qcheck_minimize_ffs =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_bound 1_000_000 in
      let* gates = int_range 6 24 in
      let* fsm = bool in
      return (seed, gates, fsm))
  in
  let print (seed, gates, fsm) =
    Printf.sprintf "seed %d, %d gates, %s" seed gates
      (if fsm then "fsm" else "mixer")
  in
  Test.make ~count:200 ~name:"minimize_ffs matches the whole-circuit reference"
    (make ~print gen)
    (fun (seed, gates, fsm) ->
      let rng = Prelude.Rng.create seed in
      let nl =
        if fsm then
          Workloads.Generate.fsm rng ~pis:2 ~pos:2 ~gates
            ~ffs:(2 + Prelude.Rng.int rng 2)
        else
          Workloads.Generate.mixer rng ~pis:2 ~pos:2 ~gates ~ff_density:0.3
      in
      match Pipeline.period_lower_bound nl with
      | `Infinite -> true
      | `Period _ ->
          let period, r = Pipeline.min_period nl in
          Retiming.minimize_ffs nl ~period ~r
          = Ffmin_reference.reference_minimize_ffs nl ~period ~r)

let () =
  Alcotest.run "retime"
    [
      ( "retiming",
        [
          Alcotest.test_case "clock period chain" `Quick test_clock_period_chain;
          Alcotest.test_case "clock period registered" `Quick
            test_clock_period_registered;
          Alcotest.test_case "legal/apply" `Quick test_legal_apply;
          Alcotest.test_case "min period ring" `Quick test_min_period_ring;
          Alcotest.test_case "min period chain" `Quick test_min_period_chain_pure;
          Alcotest.test_case "matches brute force" `Quick
            test_min_period_matches_brute_force;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "chain" `Quick test_pipeline_chain;
          Alcotest.test_case "ring" `Quick test_pipeline_ring;
          Alcotest.test_case "combinational loop" `Quick test_pipeline_comb_loop;
          Alcotest.test_case "matches mdr" `Quick test_pipeline_matches_mdr;
        ] );
      ( "ff-minimization",
        [
          Alcotest.test_case "ff count" `Quick test_ff_count;
          Alcotest.test_case "minimize" `Quick test_minimize_ffs;
          QCheck_alcotest.to_alcotest qcheck_minimize_ffs;
        ] );
    ]
