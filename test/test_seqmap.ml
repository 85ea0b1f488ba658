(* Tests for the sequential mapping core: expanded circuits, label
   computation, PLD, minimum-ratio search, and mapping generation.

   The strongest checks: (1) the generated LUT network's MDR ratio never
   exceeds the phi returned by the search (achievability), and (2) the
   mapped circuit is sequentially equivalent to the source from consistent
   initial states (Equiv.mapped_equal). *)

open Prelude
open Logic
open Circuit
open Seqmap

let rat = Alcotest.testable Rat.pp Rat.equal

(* v = xor(x, v@1): one-gate accumulator *)
let accumulator () =
  let nl = Netlist.create ~name:"acc" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let v = Netlist.reserve_gate ~name:"v" nl in
  Netlist.define_gate nl v (Truthtable.xor_all 2) [| (x, 0); (v, 1) |];
  ignore (Netlist.add_po ~name:"y" nl ~driver:v ~weight:0);
  nl

(* loop of [g] xor gates each also fed by its own PI, [f] FFs on the loop *)
let pi_loop g f =
  let nl = Netlist.create ~name:(Printf.sprintf "loop%d_%d" g f) () in
  let pis = Array.init g (fun i -> Netlist.add_pi ~name:(Printf.sprintf "x%d" i) nl) in
  let gates = Array.init g (fun i -> Netlist.reserve_gate ~name:(Printf.sprintf "g%d" i) nl) in
  for i = 0 to g - 1 do
    let prev = gates.((i + g - 1) mod g) in
    let w = if i < f then 1 else 0 in
    Netlist.define_gate nl gates.(i) (Truthtable.xor_all 2)
      [| (pis.(i), 0); (prev, w) |]
  done;
  ignore (Netlist.add_po ~name:"y" nl ~driver:gates.(g - 1) ~weight:0);
  nl

(* [Expanded.build] with the rational internality oracle: [u^w] lies
   inside the LUT when its height [l(u) - phi*w + 1] exceeds the
   threshold — the predicate the label engine decides in scaled
   integers. *)
let build_rat ?arena nl ~root ~labels ~phi ~threshold ~extra_depth ~max_nodes =
  let internal_of u w =
    Rat.( > ) (Rat.add (Rat.sub labels.(u) (Rat.mul_int phi w)) Rat.one) threshold
  in
  Expanded.build ?arena ~internal_of nl ~root ~extra_depth ~max_nodes

let test_expanded_basic () =
  let nl = accumulator () in
  let v = Option.get (Netlist.find_by_name nl "v") in
  let labels = Array.make (Netlist.n nl) Rat.zero in
  labels.(v) <- Rat.one;
  let ex =
    build_rat nl ~root:v ~labels ~phi:Rat.one ~threshold:Rat.zero
      ~extra_depth:2 ~max_nodes:100
  in
  Alcotest.(check bool) "root internal" true ex.Expanded.internal.(0);
  Alcotest.(check bool) "root is v^0" true
    (ex.Expanded.nodes.(0) = { Expanded.u = v; w = 0 });
  Alcotest.(check bool) "no overflow" false ex.Expanded.overflow;
  (* x^0 has height 1 > 0 -> internal; v^1 height 1 - 1 + 1 = 1 > 0 internal;
     expansion continues: x^1, v^2 ... *)
  Alcotest.(check bool) "several nodes" true (Array.length ex.Expanded.nodes >= 4)

let test_expanded_overflow () =
  let nl = pi_loop 4 1 in
  let labels = Array.make (Netlist.n nl) Rat.one in
  List.iter (fun p -> labels.(p) <- Rat.zero) (Netlist.pis nl);
  let v = Option.get (Netlist.find_by_name nl "g0") in
  let ex =
    (* impossible threshold forces unbounded internal expansion into the
       node budget *)
    build_rat nl ~root:v ~labels ~phi:(Rat.make 1 100)
      ~threshold:(Rat.of_int (-100)) ~extra_depth:0 ~max_nodes:16
  in
  Alcotest.(check bool) "overflow reported" true ex.Expanded.overflow

let test_expanded_cone () =
  let nl = accumulator () in
  let v = Option.get (Netlist.find_by_name nl "v") in
  (* cut {x^0, v^1}: function must be xor *)
  let tt = Mapgen.cut_function nl ~root:v ~cut:[| (0, 0); (v, 1) |] in
  Alcotest.(check bool) "xor recovered" true
    (Truthtable.equal tt (Truthtable.xor_all 2));
  (* deeper cut through the loop: v = xor(x^0, xor(x^1, v^2)) *)
  let x = Option.get (Netlist.find_by_name nl "x") in
  let tt2 = Mapgen.cut_function nl ~root:v ~cut:[| (x, 0); (x, 1); (v, 2) |] in
  Alcotest.(check bool) "unrolled xor3" true
    (Truthtable.equal tt2 (Truthtable.xor_all 3));
  (* invalid cut raises *)
  Alcotest.check_raises "uncovered"
    (Invalid_argument "Mapgen.cut_function: cut does not cover a path")
    (fun () -> ignore (Mapgen.cut_function nl ~root:v ~cut:[| (x, 0) |]))

let test_frontier_cut () =
  let nl = accumulator () in
  let v = Option.get (Netlist.find_by_name nl "v") in
  let labels = Array.make (Netlist.n nl) Rat.zero in
  labels.(v) <- Rat.one;
  (* threshold 0: x^0 (height 1) is internal but is a PI -> no frontier *)
  let ex =
    build_rat nl ~root:v ~labels ~phi:Rat.one ~threshold:Rat.zero
      ~extra_depth:2 ~max_nodes:100
  in
  Alcotest.(check (list int)) "no frontier below PIs" []
    (Expanded.frontier_cut ex);
  (* threshold 1: x^0 and v^1 are cut candidates; frontier = both *)
  let ex1 =
    build_rat nl ~root:v ~labels ~phi:Rat.one ~threshold:Rat.one
      ~extra_depth:2 ~max_nodes:100
  in
  let cut = Expanded.frontier_cut ex1 in
  Alcotest.(check bool) "frontier nonempty" true (cut <> []);
  (* the frontier cut must be a valid cover: the cone function evaluates *)
  let pairs =
    List.map
      (fun i ->
        let nd = ex1.Expanded.nodes.(i) in
        (nd.Expanded.u, nd.Expanded.w))
      cut
  in
  let tt = Mapgen.cut_function nl ~root:v ~cut:(Array.of_list pairs) in
  Alcotest.(check bool) "xor recovered" true
    (Truthtable.equal tt (Truthtable.xor_all (List.length cut)))

let test_labels_accumulator () =
  let nl = accumulator () in
  let opts = Label_engine.default_options ~k:4 in
  (match fst (Label_engine.run opts nl ~phi:Rat.one) with
  | Label_engine.Feasible { labels; impls; prov = _ } ->
      let v = Option.get (Netlist.find_by_name nl "v") in
      Alcotest.check rat "label 1" Rat.one labels.(v);
      Alcotest.(check bool) "impl present" true (impls.(v) <> None)
  | Label_engine.Infeasible -> Alcotest.fail "phi=1 must be feasible");
  (* phi=1/2 is feasible with K=4: the LUT can unroll the loop and read
     v@3 (cut {x, x@1, x@2, v@3}), giving a self-loop of ratio 1/3 *)
  (match fst (Label_engine.run opts nl ~phi:(Rat.make 1 2)) with
  | Label_engine.Feasible _ -> ()
  | Label_engine.Infeasible -> Alcotest.fail "phi=1/2 must be feasible at K=4");
  (* with K=2 no such unrolling fits: infeasible *)
  let opts2 = Label_engine.default_options ~k:2 in
  match fst (Label_engine.run opts2 nl ~phi:(Rat.make 1 2)) with
  | Label_engine.Infeasible -> ()
  | Label_engine.Feasible _ -> Alcotest.fail "phi=1/2 must be infeasible at K=2"

let test_minimum_ratio_accumulator () =
  let nl = accumulator () in
  let opts = Label_engine.default_options ~k:4 in
  let phi, probes, _ = Turbomap.minimum_ratio opts nl in
  (* ratios below 1 are feasible for the engine (loop unrolling), but the
     search floors at 1 as in the paper: the clock period cannot drop
     below one LUT delay *)
  Alcotest.check rat "phi* = 1" Rat.one phi;
  Alcotest.(check bool) "few probes" true (probes < 64);
  (* K=2 cannot unroll: phi* = 1 *)
  let phi2, _, _ = Turbomap.minimum_ratio (Label_engine.default_options ~k:2) nl in
  Alcotest.check rat "k=2 phi* = 1" Rat.one phi2

let test_minimum_ratio_collapsible_loop () =
  (* 3-gate loop with 1 FF and per-gate PIs: with K=5 the whole loop fits
     in one LUT (4 inputs) -> phi* = 1; with K=2 it cannot *)
  let nl = pi_loop 3 1 in
  let opts5 = Label_engine.default_options ~k:5 in
  let phi5, _, _ = Turbomap.minimum_ratio opts5 nl in
  Alcotest.check rat "k=5 collapses to 1" Rat.one phi5;
  let opts2 = Label_engine.default_options ~k:2 in
  let phi2, _, _ = Turbomap.minimum_ratio opts2 nl in
  Alcotest.(check bool) "k=2 worse" true Rat.(phi2 > phi5);
  (* trivial mapping gives MDR 3; TurboMap must not exceed it *)
  (match Netlist.mdr_ratio nl with
  | Graphs.Cycle_ratio.Ratio ub -> Alcotest.(check bool) "<= UB" true Rat.(phi2 <= ub)
  | _ -> Alcotest.fail "expected ratio")

let test_acyclic_zero () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let a = Build.not_ nl x in
  let b = Build.buf ~w:1 nl a in
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  let opts = Label_engine.default_options ~k:4 in
  let phi, _, _ = Turbomap.minimum_ratio opts nl in
  Alcotest.check rat "acyclic -> 0" Rat.zero phi

let check_mapped_against nl k ~resynthesize rng =
  let opts =
    { (Label_engine.default_options ~k) with Label_engine.resynthesize }
  in
  let mapped, phi, _ = Stages.map opts nl in
  (* structure *)
  Alcotest.(check (list string)) "valid" []
    (List.map (Format.asprintf "%a" Netlist.pp_error) (Netlist.validate ~k mapped));
  (* achievability: the mapped circuit's MDR never exceeds phi* *)
  (match Netlist.mdr_ratio mapped with
  | Graphs.Cycle_ratio.Ratio m ->
      Alcotest.(check bool)
        (Format.asprintf "mdr %a <= phi %a" Rat.pp m Rat.pp phi)
        true
        Rat.(m <= phi)
  | Graphs.Cycle_ratio.No_cycle -> ()
  | Graphs.Cycle_ratio.Infinite -> Alcotest.fail "mapped comb loop");
  (* sequential equivalence from consistent initial states *)
  Alcotest.(check bool) "mapped_equal" true
    (Sim.Equiv.mapped_equal ~runs:3 ~cycles:32 ~warmup:32 rng nl mapped)

let test_map_random_turbomap () =
  let rng = Rng.create 111 in
  for iter = 1 to 10 do
    let nl = Random_circuit.seq rng ~pis:3 ~gates:10 ~max_arity:3 in
    check_mapped_against nl 4 ~resynthesize:false rng;
    ignore iter
  done

let test_map_random_turbosyn () =
  let rng = Rng.create 222 in
  for iter = 1 to 8 do
    let nl = Random_circuit.seq rng ~pis:3 ~gates:10 ~max_arity:3 in
    check_mapped_against nl 4 ~resynthesize:true rng;
    ignore iter
  done

let test_turbosyn_no_worse () =
  let rng = Rng.create 333 in
  for _ = 1 to 8 do
    let nl = Random_circuit.seq rng ~pis:3 ~gates:12 ~max_arity:3 in
    let tm = Label_engine.default_options ~k:4 in
    let ts = { tm with Label_engine.resynthesize = true } in
    let phi_tm, _, _ = Turbomap.minimum_ratio tm nl in
    let phi_ts, _, _ = Turbomap.minimum_ratio ts nl in
    Alcotest.(check bool)
      (Format.asprintf "turbosyn %a <= turbomap %a" Rat.pp phi_ts Rat.pp phi_tm)
      true
      Rat.(phi_ts <= phi_tm)
  done

(* The O(n) check a replayed resynthesis candidate trusts its remembered
   arrival permutation under: on arrays with many ties, it must accept a
   permutation exactly when it is the [Array.stable_sort] order.  Half
   the cases test the sorted order itself or that order with two
   neighbours swapped (tie or not), the rest a random shuffle. *)
(* C-slow invariance.  C-slowing multiplies every register count, POs'
   included, by C; the label recurrence sees phi only through
   l(u) - phi * w(e), so the engine at phi/C on the C-slowed copy must
   answer what it answers at phi on the source: the same verdict and
   the same labels, with and without resynthesis.  Only the engine is
   compared: the search's phi* and LUT count also depend on the probe
   sequence, through the cut memo the final run inherits. *)
let qcheck_c_slow =
  QCheck.Test.make ~name:"C-slowed copy at phi/C = source at phi" ~count:100
    QCheck.(
      make
        ~print:(fun (seed, c) -> Printf.sprintf "seed=%d C=%d" seed c)
        Gen.(pair (0 -- 1_000_000) (2 -- 3)))
    (fun (seed, c) ->
      let rng = Rng.create seed in
      let nl =
        Random_circuit.seq rng ~pis:3 ~gates:(8 + Rng.int rng 9) ~max_arity:3
      in
      let slowed = Netlist.copy nl in
      List.iter
        (fun v ->
          Array.iteri
            (fun j (_, w) -> Netlist.set_weight slowed v j (w * c))
            (Netlist.fanins nl v))
        (Netlist.gates nl @ Netlist.pos nl);
      let same opts phi =
        let slow_phi = Rat.div phi (Rat.of_int c) in
        match
          ( fst (Label_engine.run opts nl ~phi),
            fst (Label_engine.run opts slowed ~phi:slow_phi) )
        with
        | Label_engine.Infeasible, Label_engine.Infeasible -> true
        | Label_engine.Feasible a, Label_engine.Feasible b ->
            Array.for_all2 Rat.equal a.labels b.labels
        | _ -> false
      in
      let turbomap = Label_engine.default_options ~k:4 in
      List.for_all
        (fun opts ->
          List.for_all (same opts)
            (List.map
               (fun (p, q) -> Rat.make p q)
               [ (1, 1); (4, 3); (3, 2); (5, 3); (2, 1); (7, 3); (5, 2);
                 (8, 3); (3, 1); (11, 3) ]))
        [ turbomap; { turbomap with Label_engine.resynthesize = true } ])

let qcheck_stable_order =
  QCheck.Test.make ~name:"stable order check = stable sort" ~count:1000
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let n = Rng.int rng 9 in
      let a = Array.init n (fun _ -> Rng.int rng 4 - 1) in
      let sorted = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Int.compare a.(i) a.(j)) sorted;
      let perm =
        match Rng.int rng 4 with
        | 0 -> Array.copy sorted
        | 1 when n >= 2 ->
            let p = Array.copy sorted in
            let i = Rng.int rng (n - 1) in
            let t = p.(i) in
            p.(i) <- p.(i + 1);
            p.(i + 1) <- t;
            p
        | _ ->
            let p = Array.init n Fun.id in
            for i = n - 1 downto 1 do
              let j = Rng.int rng (i + 1) in
              let t = p.(i) in
              p.(i) <- p.(j);
              p.(j) <- t
            done;
            p
      in
      Label_engine.stable_order a perm = (perm = sorted))

(* Snapshot soundness: the engine reuses a past expansion whenever its
   (node, registers, internal) trace re-derives every flag under the
   current labels, threshold and phi.  That is exact only if such a
   state always rebuilds the same expansion.  Build one at a random
   state, perturb the state the ways label runs move it (labels and
   threshold in lock-step, one label bumped, the threshold or phi
   moved), and whenever the trace revalidates, rebuild and compare
   every component. *)
let qcheck_snapshot_soundness =
  QCheck.Test.make ~name:"revalidated snapshot = rebuilt expansion"
    ~count:600
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let nl = Random_circuit.seq rng ~pis:2 ~gates:(3 + Rng.int rng 8) ~max_arity:3 in
      let n = Netlist.n nl in
      let q = 1 + Rng.int rng 3 in
      let r num = Rat.make num q in
      let phi = r (1 + Rng.int rng (3 * q)) in
      let labels =
        Array.init n (fun u ->
            if Netlist.is_gate nl u then r (q + Rng.int rng (4 * q)) else Rat.zero)
      in
      let threshold = r (Rng.int rng (5 * q)) in
      let root = Rng.pick rng (Array.of_list (Netlist.gates nl)) in
      let extra_depth = Rng.int rng 3 and max_nodes = 8 + Rng.int rng 40 in
      let build labels phi threshold =
        build_rat nl ~root ~labels ~phi ~threshold ~extra_depth ~max_nodes
      in
      let ex = build labels phi threshold in
      let labels' = Array.copy labels in
      let step = r (Rng.int rng 3 - 1) in
      let threshold' =
        match Rng.int rng 3 with
        | 0 ->
            Array.iteri
              (fun u l -> if Netlist.is_gate nl u then labels'.(u) <- Rat.add l step)
              labels;
            Rat.add threshold step
        | 1 ->
            let u = Rng.int rng n in
            if Netlist.is_gate nl u then labels'.(u) <- Rat.add labels.(u) step;
            threshold
        | _ -> Rat.add threshold step
      in
      let phi' =
        match Rng.int rng 3 with
        | 0 -> phi
        | 1 -> Rat.add phi (Rat.make (Rng.int rng 7 - 3) (2 * q))
        | _ -> Rat.add phi (r (q + Rng.int rng (2 * q)))
      in
      (not
         (Label_engine.snapshot_revalidates ex ~labels:labels' ~phi:phi'
            ~threshold:threshold'))
      ||
      let ex' = build labels' phi' threshold' in
      ex'.Expanded.nodes = ex.Expanded.nodes
      && ex'.Expanded.edges = ex.Expanded.edges
      && ex'.Expanded.internal = ex.Expanded.internal
      && ex'.Expanded.sources = ex.Expanded.sources
      && ex'.Expanded.overflow = ex.Expanded.overflow)

(* Golden labels: the verdict, iteration count and labels digest of each
   label run below, recorded from the seed engine.  Its schedule, every
   SCC member re-tested in sorted order in every iteration, is the only
   one the engine has, so the table pins it; the engine's snapshot,
   memo, arena and witness fast paths must not change a
   decision, so every row must reproduce exactly: same feasibility
   verdict, same iteration count, same labels — with PLD on and off and
   resynthesis on and off.  Rows are (circuit, option set, phi, verdict
   [F]easible / [I]nfeasible, iterations, MD5 of the labels or "-"). *)
let golden_labels =
  [
    ("rand0", "turbomap", "1", "F", 10, "58473905f9bcc6f6b416feb1eff362b7");
    ("rand0", "turbosyn", "1", "F", 10, "58473905f9bcc6f6b416feb1eff362b7");
    ("rand0", "nopld", "1", "F", 10, "58473905f9bcc6f6b416feb1eff362b7");
    ("rand1", "turbomap", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "turbomap", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "turbomap", "2", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "turbosyn", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "turbosyn", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "turbosyn", "2", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "nopld", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "nopld", "1", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand1", "nopld", "2", "F", 11, "59ae3b5a6573f223946b29955bbf102d");
    ("rand2", "turbomap", "1", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand2", "turbomap", "1", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand2", "turbomap", "2", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand2", "turbosyn", "1", "F", 6, "f79e4014fc789c7d99287bb4fffd89f6");
    ("rand2", "turbosyn", "1", "F", 6, "f79e4014fc789c7d99287bb4fffd89f6");
    ("rand2", "turbosyn", "2", "F", 6, "f79e4014fc789c7d99287bb4fffd89f6");
    ("rand2", "nopld", "1", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand2", "nopld", "1", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand2", "nopld", "2", "F", 7, "8523376818d8fa7078c892511c2bc421");
    ("rand3", "turbomap", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "turbomap", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "turbomap", "2", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "turbosyn", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "turbosyn", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "turbosyn", "2", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "nopld", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "nopld", "1", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand3", "nopld", "2", "F", 9, "ba41d006b9dee0dc90facbc632bb4c47");
    ("rand4", "turbomap", "3/2", "F", 12, "fbae060e672f022ce91e8ae25785c21b");
    ("rand4", "turbomap", "1", "I", 11, "-");
    ("rand4", "turbomap", "3", "F", 12, "fbae060e672f022ce91e8ae25785c21b");
    ("rand4", "turbosyn", "3/2", "F", 12, "304285678dc80a17e1416c0b2f3a3ea6");
    ("rand4", "turbosyn", "1", "I", 22, "-");
    ("rand4", "turbosyn", "3", "F", 12, "304285678dc80a17e1416c0b2f3a3ea6");
    ("rand4", "nopld", "3/2", "F", 12, "fbae060e672f022ce91e8ae25785c21b");
    ("rand4", "nopld", "1", "I", 98, "-");
    ("rand4", "nopld", "3", "F", 12, "fbae060e672f022ce91e8ae25785c21b");
    ("rand5", "turbomap", "1", "F", 15, "c3f2f5ccd91d2180453d4030b7a4d99d");
    ("rand5", "turbosyn", "1", "F", 15, "c3f2f5ccd91d2180453d4030b7a4d99d");
    ("rand5", "nopld", "1", "F", 15, "c3f2f5ccd91d2180453d4030b7a4d99d");
    ("loop6_3", "turbomap", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "turbomap", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "turbomap", "2", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "turbosyn", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "turbosyn", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "turbosyn", "2", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "nopld", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "nopld", "1", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop6_3", "nopld", "2", "F", 2, "1f297bf02a50c54ddb6480d462e8ae28");
    ("loop5_1", "turbomap", "2", "F", 2, "55c66d8a9f42cdc916a0317f5471572d");
    ("loop5_1", "turbomap", "1", "I", 8, "-");
    ("loop5_1", "turbomap", "4", "F", 2, "55c66d8a9f42cdc916a0317f5471572d");
    ("loop5_1", "turbosyn", "1", "F", 3, "0f0e76c3f1b75a6f8d1a460d84591657");
    ("loop5_1", "turbosyn", "1", "F", 3, "0f0e76c3f1b75a6f8d1a460d84591657");
    ("loop5_1", "turbosyn", "2", "F", 2, "55c66d8a9f42cdc916a0317f5471572d");
    ("loop5_1", "nopld", "2", "F", 2, "55c66d8a9f42cdc916a0317f5471572d");
    ("loop5_1", "nopld", "1", "I", 90, "-");
    ("loop5_1", "nopld", "4", "F", 2, "55c66d8a9f42cdc916a0317f5471572d");
    ("bbara", "synth-k5", "2", "F", 35, "6b52d6febb2541b0c84cd0d2cebd055b");
    ("s298", "synth-k5", "4", "F", 24, "7f4bc77d9d4a58690956fa5d784cc113");
  ]

let labels_digest labels =
  Digest.to_hex
    (Digest.string
       (String.concat " " (Array.to_list (Array.map Rat.to_string labels))))

let test_golden_labels () =
  let show (c, o, phi, verdict, iters, digest) =
    Printf.sprintf "%s/%s phi=%s: %s iterations=%d labels=%s" c o phi verdict
      iters digest
  in
  let actual = ref [] in
  let row cname oname opts nl phi =
    let out, stats = Label_engine.run opts nl ~phi in
    let verdict, digest =
      match out with
      | Label_engine.Feasible { labels; _ } -> ("F", labels_digest labels)
      | Label_engine.Infeasible -> ("I", "-")
    in
    actual :=
      ( cname,
        oname,
        Rat.to_string phi,
        verdict,
        stats.Label_engine.iterations,
        digest )
      :: !actual
  in
  let rng = Rng.create 555 in
  let circuits =
    List.init 6 (fun i ->
        ( Printf.sprintf "rand%d" i,
          Random_circuit.seq rng ~pis:3 ~gates:(10 + i) ~max_arity:3 ))
    @ [ ("loop6_3", pi_loop 6 3); ("loop5_1", pi_loop 5 1) ]
  in
  List.iter
    (fun (cname, nl) ->
      List.iter
        (fun (oname, opts) ->
          let phi_star, _, _ = Turbomap.minimum_ratio opts nl in
          List.iter
            (fun phi -> if Rat.( > ) phi Rat.zero then row cname oname opts nl phi)
            [ phi_star; Rat.one; Rat.mul_int phi_star 2 ])
        [
          ("turbomap", Label_engine.default_options ~k:4);
          ( "turbosyn",
            {
              (Label_engine.default_options ~k:4) with
              Label_engine.resynthesize = true;
            } );
          ( "nopld",
            { (Label_engine.default_options ~k:4) with Label_engine.pld = false }
          );
        ])
    circuits;
  (* suite circuits under the full TurboSYN options at K=5, at the phi*
     of the default flow *)
  List.iter
    (fun name ->
      let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
      let so = Turbosyn.Synth.default_options ~k:5 () in
      let r = Turbosyn.Synth.run ~options:so `Turbosyn nl in
      row name "synth-k5"
        (Turbosyn.Synth.engine_options so ~resynthesize:true)
        nl r.Turbosyn.Synth.phi)
    [ "bbara"; "s298" ];
  Alcotest.(check (list string))
    "golden label rows"
    (List.map show golden_labels)
    (List.rev_map show !actual)

(* Golden provenance: per-source counts of the final label run's
   provenance for TurboSYN at K=5, recorded before snapshots were shared
   across thresholds.  The harvest reads only the snapshot that answered
   a gate's latest cut test, so which other expansions the engine keeps
   must not move a gate between [cut_test] and [snapshot]; the labels
   alone (golden labels) cannot see that. *)
let golden_provenance =
  [
    "bbara cut_test=15 snapshot=0 recorded=26 resyn0=17 resyn1=0 resyn2=0";
    "cse cut_test=65 snapshot=6 recorded=58 resyn0=55 resyn1=4 resyn2=2";
    "s298 cut_test=22 snapshot=3 recorded=66 resyn0=24 resyn1=4 resyn2=0";
  ]

let test_golden_provenance () =
  let row name =
    let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
    let so = Turbosyn.Synth.default_options ~k:5 () in
    let r = Turbosyn.Synth.run ~options:so `Turbosyn nl in
    let c = Array.make 6 0 in
    Array.iter
      (function
        | None -> ()
        | Some p ->
            let i =
              match p.Label_engine.p_source with
              | Label_engine.From_cut_test -> 0
              | Label_engine.From_snapshot -> 1
              | Label_engine.From_recorded -> 2
              | Label_engine.From_resyn h -> 3 + h
            in
            c.(i) <- c.(i) + 1)
      (Option.get r.Turbosyn.Synth.prov);
    Printf.sprintf
      "%s cut_test=%d snapshot=%d recorded=%d resyn0=%d resyn1=%d resyn2=%d"
      name c.(0) c.(1) c.(2) c.(3) c.(4) c.(5)
  in
  Alcotest.(check (list string))
    "provenance counts" golden_provenance
    (List.map row [ "bbara"; "cse"; "s298" ])

(* Golden mapped BLIFs: MD5 of the mapped netlist of the default
   TurboSYN flow, recorded before the resynthesis cache reused cone BDDs
   and replayed candidates' cache answers.  The golden-labels runs
   bypass the cache ([Label_engine.run] without [?cache]); these flows
   go through it, so any change to a decomposition tree, a label or a
   provenance choice on the cached path moves a digest. *)
let golden_blifs =
  [
    ("bbara", 4, "b9a95ff8787e6198b8529b35ca8f4103");
    ("bbara", 5, "79fac0a80d8c5ecff14d95dbe5c769c1");
    ("bbara", 6, "6a460831e715191ab9b5cb58781f4e21");
    ("bbsse", 5, "2e8a45df70859a94dbc004edd66354e9");
    ("cse", 5, "088e9f5375685c1f6a1dab8f03ac8323");
    ("s298", 5, "5e0c777830419dfb95cb8afe8293bce6");
  ]

let test_golden_blifs () =
  let show (name, k, digest) = Printf.sprintf "%s K=%d %s" name k digest in
  let row (name, k, _) =
    let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
    let so = Turbosyn.Synth.default_options ~k () in
    let r = Turbosyn.Synth.run ~options:so `Turbosyn nl in
    ( name,
      k,
      Digest.to_hex (Digest.string (Blif.to_string r.Turbosyn.Synth.mapped)) )
  in
  Alcotest.(check (list string))
    "mapped BLIF digests"
    (List.map show golden_blifs)
    (List.map (fun g -> show (row g)) golden_blifs)

(* Search events of one call: the members of every [search.probe] debug
   line it logs, in order. *)
let probe_records f =
  let r, records = Log_capture.capture f in
  (r, Log_capture.events "search.probe" records)

(* The phi of every [search.probe] record of one call, in order. *)
let probed_phis f =
  let r, recs = probe_records f in
  ( r,
    List.map
      (fun fields ->
        match List.assoc_opt "phi" fields with
        | Some (Obs.Json.Str p) -> p
        | _ -> Alcotest.fail "probe event without phi")
      recs )

(* The ratio search on five random circuits (TurboSYN options, K=4, no
   denominator cap): phi* and the probe sequence of each, recorded with
   the replaying search loop the memoizing oracle replaced.
   Acyclic circuits (phi* = 0) and UB <= 1 need no probe. *)
let search_pins =
  [
    ("1/2", []);
    ("1", [ "1" ]);
    ("0", []);
    ("1", []);
    ("2", [ "1"; "4"; "2"; "95/48" ]);
  ]

let test_search_pins () =
  let rng = Rng.create 777 in
  List.iteri
    (fun i (expect_phi, expect_phis) ->
      let nl = Random_circuit.seq rng ~pis:3 ~gates:(11 + i) ~max_arity:3 in
      let opts =
        {
          (Label_engine.default_options ~k:4) with
          Label_engine.resynthesize = true;
        }
      in
      let (phi, probes, _), phis =
        probed_phis (fun () -> Turbomap.minimum_ratio opts nl)
      in
      let name = Printf.sprintf "rand%d" (i + 1) in
      Alcotest.(check string) (name ^ " phi*") expect_phi (Rat.to_string phi);
      Alcotest.(check int) (name ^ " probes") (List.length expect_phis) probes;
      Alcotest.(check (list string)) (name ^ " probe sequence") expect_phis phis)
    search_pins

(* The repository benchmark still compiles against four parallelism
   knobs that are gone; each accepts only 1 until the next benchmark
   change removes it. *)
let test_jobs_rejected () =
  let nl = pi_loop 3 1 in
  let opts = Label_engine.default_options ~k:4 in
  let so = Turbosyn.Synth.default_options ~k:4 () in
  Alcotest.check_raises "Turbomap.minimum_ratio ~jobs:2"
    (Invalid_argument "Turbomap.minimum_ratio: jobs must be 1") (fun () ->
      ignore (Turbomap.minimum_ratio ~jobs:2 opts nl));
  Alcotest.check_raises "Flowsyn.map_sequential ~jobs:2"
    (Invalid_argument "Flowsyn.map_sequential: jobs must be 1") (fun () ->
      ignore (Flowmap.Flowsyn.map_sequential ~jobs:2 nl ~k:4));
  Alcotest.check_raises "Synth.options.jobs = 2"
    (Invalid_argument "Synth.run: jobs must be 1") (fun () ->
      ignore
        (Turbosyn.Synth.run ~options:{ so with Turbosyn.Synth.jobs = 2 }
           `Turbomap nl));
  Alcotest.check_raises "Synth.options.probe_jobs = 2"
    (Invalid_argument "Synth.run: probe_jobs must be 1") (fun () ->
      ignore
        (Turbosyn.Synth.run
           ~options:{ so with Turbosyn.Synth.probe_jobs = 2 }
           `Turbomap nl))

(* Cross-phi cut memo (cut-engine layer 2, doc/PERF.md).  A recorded
   cut is a real K-cut, so a memo hit is sound, but it can justify a
   label that a fresh expansion (bounded by [extra_depth]) cannot reach:
   handing the memo to a run can lower labels, not only reproduce them.
   On bbara TurboSYN phi* and the labels at phi* are unchanged while the
   memo demonstrably engages (cut.memo_hits > 0).  On dk16 K=5 TurboMap
   phi* is unchanged too, but the memo's labels are at or below the
   fresh ones at every gate and strictly below on some (26 gates).  A
   memo sized for a different netlist is rejected. *)
let test_cut_memo () =
  let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find "bbara")) in
  let opts =
    { (Label_engine.default_options ~k:5) with Label_engine.resynthesize = true }
  in
  let phi_a, _, _ = Turbomap.minimum_ratio opts nl in
  let memo = Label_engine.new_cut_memo nl in
  let phi_b, _, _ = Turbomap.minimum_ratio ~cutmemo:memo opts nl in
  Alcotest.(check bool) "phi invariant under the memo" true
    (Rat.equal phi_a phi_b);
  let labels_of ?cutmemo () =
    match Label_engine.run ?cutmemo opts nl ~phi:phi_a with
    | Label_engine.Feasible { labels; _ }, _ -> labels
    | Label_engine.Infeasible, _ -> Alcotest.fail "infeasible at phi*"
  in
  Alcotest.(check bool) "labels invariant under the memo" true
    (labels_of () = labels_of ~cutmemo:memo ());
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      ignore (Label_engine.run ~cutmemo:memo opts nl ~phi:phi_a);
      let hits = Option.value ~default:0 (Obs.Counter.find "cut.memo_hits") in
      Alcotest.(check bool) "memo hits recorded" true (hits > 0));
  let dk16 = Workloads.Suite.build (Option.get (Workloads.Suite.find "dk16")) in
  Alcotest.check_raises "memo for another netlist rejected"
    (Invalid_argument "Label_engine.run: cut memo sized for another netlist")
    (fun () -> ignore (Label_engine.run ~cutmemo:memo opts dk16 ~phi:phi_a));
  let tm = Label_engine.default_options ~k:5 in
  let memo = Label_engine.new_cut_memo dk16 in
  let phi, _, _ =
    Turbomap.minimum_ratio ~cutmemo:memo ~phi_max_den:24 tm dk16
  in
  let phi_fresh, _, _ = Turbomap.minimum_ratio ~phi_max_den:24 tm dk16 in
  Alcotest.check rat "dk16 TurboMap phi* invariant under the memo" phi_fresh
    phi;
  let labels_of ?cutmemo () =
    match Label_engine.run ?cutmemo tm dk16 ~phi with
    | Label_engine.Feasible { labels; _ }, _ -> labels
    | Label_engine.Infeasible, _ -> Alcotest.fail "dk16 infeasible at phi*"
  in
  let with_memo = labels_of ~cutmemo:memo () and fresh = labels_of () in
  let gates = Circuit.Netlist.gates dk16 in
  Alcotest.(check bool) "dk16 memo labels <= fresh labels" true
    (List.for_all (fun v -> Rat.( <= ) with_memo.(v) fresh.(v)) gates);
  Alcotest.(check bool) "dk16 memo lowers some label" true
    (List.exists (fun v -> Rat.( < ) with_memo.(v) fresh.(v)) gates)

(* The ratio search decides each phi once: every [search.probe] log
   record names a distinct phi, the probe count matches the events, phi*
   is the one the search has always returned, and the probes are the
   pinned sequence (K=5, TurboSYN or TurboMap options).  With the flow's
   denominator cap of 24, an integer phi* = n is certified by one
   infeasible probe at n - 1/24 right after the integer phase finds n:
   no (2n-1)/2 rung is probed.  Without a cap the search explores
   denominators up to the register count. *)
let check_probe_rows ~k rows =
  let so = Turbosyn.Synth.default_options ~k () in
  List.iter
    (fun (name, resynthesize, phi_max_den, expect, expect_phis) ->
      let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
      let opts = Turbosyn.Synth.engine_options so ~resynthesize in
      let (phi, probes, _), phis =
        probed_phis (fun () -> Turbomap.minimum_ratio ?phi_max_den opts nl)
      in
      Alcotest.check rat (name ^ " phi*") expect phi;
      Alcotest.(check int) (name ^ " probes = events") probes
        (List.length phis);
      Alcotest.(check (list string))
        (name ^ " probed phis pairwise distinct")
        (List.sort_uniq compare phis) (List.sort compare phis);
      Alcotest.(check (list string))
        (name ^ " probe sequence") expect_phis phis)
    rows

let test_probe_each_phi_once () =
  check_probe_rows ~k:5
    [
      ("bbara", true, None, Rat.of_int 2, [ "1"; "6"; "2"; "215/108" ]);
      ( "cse",
        false,
        None,
        Rat.of_int 7,
        [ "1"; "10"; "2"; "4"; "8"; "6"; "7"; "839/120" ] );
      ("bbara", true, Some 24, Rat.of_int 2, [ "1"; "6"; "2"; "47/24" ]);
      ("cse", true, Some 24, Rat.of_int 4, [ "1"; "10"; "2"; "4"; "3"; "95/24" ]);
    ]

(* A fractional phi* (s420 TurboMap at K=6, the flow's cap of 24): the
   integer phase brackets phi* in (3, 4], the probe at 4 - 1/24 shows 4
   is not minimal, and the Stern-Brocot descent settles on 11/3.
   Recorded with the replaying search loop the memoizing oracle
   replaced. *)
let test_probe_each_phi_once_fractional () =
  check_probe_rows ~k:6
    [
      ( "s420",
        false,
        Some 24,
        Rat.make 11 3,
        [ "1"; "7"; "2"; "4"; "3"; "95/24"; "7/2"; "11/3"; "18/5"; "84/23" ] );
    ]

(* Arena ownership: an arena is private to one label run; distinct
   arenas solve concurrently without interference (serve workers run
   label engines on concurrent domains), and one arena is reusable
   across sequential solves (the busy flag is released even though
   results are copied out).  The same holds for the run's BDD
   manager. *)
let test_arena_isolation () =
  (* a small diamond spec: 0,1 sources; 3 = sink side *)
  let spec =
    {
      Flow.Kcut.n = 4;
      edges = [| (0, 2); (1, 2); (0, 3); (2, 3) |];
      sink_side = [| false; false; false; true |];
      sources = [ 0; 1 ];
    }
  in
  let expected = Flow.Kcut.find spec ~k:2 in
  (* sequential reuse: the same arena across many solves *)
  let arena = Flow.Kcut.new_arena () in
  for _ = 1 to 10 do
    Alcotest.(check bool) "arena reuse agrees" true
      (Flow.Kcut.find ~arena spec ~k:2 = expected)
  done;
  (* cross-domain isolation: one arena per domain, concurrent solves *)
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let arena = Flow.Kcut.new_arena () in
            List.init 16 (fun _ -> Flow.Kcut.find ~arena spec ~k:2)))
  in
  List.iteri
    (fun d results ->
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d solve %d agrees" d i)
            true (r = expected))
        results)
    (List.map Domain.join domains);
  (* same discipline for expansion arenas *)
  let nl = pi_loop 6 2 in
  let v = Option.get (Netlist.find_by_name nl "g0") in
  let labels = Array.make (Netlist.n nl) Rat.one in
  List.iter (fun p -> labels.(p) <- Rat.zero) (Netlist.pis nl);
  let build arena =
    build_rat ~arena nl ~root:v ~labels ~phi:Rat.one ~threshold:Rat.zero
      ~extra_depth:2 ~max_nodes:100
  in
  let earena = Expanded.new_arena () in
  let a = build earena in
  let b = build earena in
  Alcotest.(check bool) "expansion arena reuse agrees" true
    (a.Expanded.nodes = b.Expanded.nodes && a.Expanded.internal = b.Expanded.internal);
  (* BDD managers: each label run owns one, so TurboSYN runs that
     decompose cones on concurrent domains agree with a sequential run *)
  let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find "bbara")) in
  let opts =
    { (Label_engine.default_options ~k:5) with Label_engine.resynthesize = true }
  in
  let phi, _, _ = Turbomap.minimum_ratio opts nl in
  let label_run () =
    Label_engine.run ~cache:(Label_engine.new_cache ()) opts nl ~phi
  in
  let expected, stats = label_run () in
  Alcotest.(check bool) "the run decomposes cones" true
    (stats.Label_engine.decompositions > 0);
  let domains =
    List.init 2 (fun _ ->
        Domain.spawn (fun () -> List.init 2 (fun _ -> fst (label_run ()))))
  in
  List.iteri
    (fun d outcomes ->
      List.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d label run %d agrees" d i)
            true (o = expected))
        outcomes)
    (List.map Domain.join domains);
  (* two runs sharing one manager trip its busy check, and the manager
     is released once the owner returns *)
  let man = Bdd.new_man () in
  Alcotest.check_raises "shared manager"
    (Invalid_argument
       "Bdd.reset: manager is leased — two label runs are sharing one \
        manager (doc/CONCURRENCY.md: one manager per label run)")
    (fun () -> Bdd.lease man (fun () -> Bdd.lease man ignore));
  Alcotest.(check int) "released after the raise" 2
    (Bdd.lease man (fun () -> Bdd.num_nodes man))

let test_pld_equivalence () =
  (* PLD on/off must agree on the minimum ratio *)
  let rng = Rng.create 444 in
  for _ = 1 to 8 do
    let nl = Random_circuit.seq rng ~pis:2 ~gates:8 ~max_arity:2 in
    let on = Label_engine.default_options ~k:3 in
    let off = { on with Label_engine.pld = false } in
    let phi_on, _, s_on = Turbomap.minimum_ratio on nl in
    let phi_off, _, _ = Turbomap.minimum_ratio off nl in
    Alcotest.check rat "same phi" phi_off phi_on;
    ignore s_on
  done

let test_pld_triggers_and_saves_iterations () =
  (* an infeasible probe just below the optimum ratio: labels rise slowly,
     so without PLD the quadratic iteration cap is the only stop; PLD's
     periodic stop or its 6n-iteration isolation test (Theorem 2) exits
     much earlier, and either counts as a PLD hit *)
  let nl = pi_loop 8 4 in
  let on = Label_engine.default_options ~k:2 in
  let off = { on with Label_engine.pld = false } in
  (* optimum ratio is 2; probe just below it so labels rise very slowly *)
  let phi = Rat.make 119 60 in
  let out_on, s_on = Label_engine.run on nl ~phi in
  let out_off, s_off = Label_engine.run off nl ~phi in
  Alcotest.(check bool) "both infeasible" true
    (out_on = Label_engine.Infeasible && out_off = Label_engine.Infeasible);
  Alcotest.(check bool)
    (Printf.sprintf "pld faster: %d < %d" s_on.Label_engine.iterations
       s_off.Label_engine.iterations)
    true
    (s_on.Label_engine.iterations < s_off.Label_engine.iterations);
  Alcotest.(check bool) "pld hit recorded" true
    (s_on.Label_engine.pld_hits > 0
    && List.mem s_on.Label_engine.cause
         [ Label_engine.Periodic; Label_engine.Pld_gate ])

(* Every probe record says why the probe ended: on bbara TurboSYN at
   K=5 (the flow's cap of 24) both rejected probes stop at a round that
   provably repeats, the certificate just below phi* = 2 among them. *)
let test_probe_causes () =
  let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find "bbara")) in
  let so = Turbosyn.Synth.default_options ~k:5 () in
  let opts = Turbosyn.Synth.engine_options so ~resynthesize:true in
  let _, recs =
    probe_records (fun () ->
        Turbomap.minimum_ratio ~cache:(Label_engine.new_cache ())
          ~cutmemo:(Label_engine.new_cut_memo nl) ~phi_max_den:24 opts nl)
  in
  let cause fields =
    match (List.assoc "phi" fields, List.assoc "cause" fields) with
    | Obs.Json.Str p, Obs.Json.Str c -> p ^ ":" ^ c
    | _ -> Alcotest.fail "probe event without phi or cause"
  in
  Alcotest.(check (list string))
    "probe causes"
    [ "1:periodic"; "6:converged"; "2:converged"; "47/24:periodic" ]
    (List.map cause recs);
  List.iter
    (fun fields ->
      List.iter
        (fun key ->
          if not (List.mem_assoc key fields) then
            Alcotest.fail ("probe record without " ^ key))
        [ "round"; "scc_gates"; "seconds" ])
    recs

(* A strongly connected register ring in the shape of a marked graph,
   fed from outside: [gates] gates in a cycle, each also reading up to
   [k - 1] chords from other ring gates and, with probability 1/2, a
   node of a combinational chain of up to 5 gates from the PIs, whose
   labels stay fixed while the ring's labels rise past them.  A combinational
   ring edge always goes from a lower to a higher index and the closing
   edge of the ring carries a register, so there is no combinational
   loop. *)
let marked_ring rng ~gates ~k =
  let nl = Netlist.create ~name:"ring" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let z = Netlist.add_pi ~name:"z" nl in
  let chain = Array.make (1 + Rng.int rng 6) x in
  for i = 1 to Array.length chain - 1 do
    let c = Netlist.reserve_gate ~name:(Printf.sprintf "c%d" i) nl in
    Netlist.define_gate nl c (Truthtable.xor_all 2) [| (chain.(i - 1), 0); (z, 0) |];
    chain.(i) <- c
  done;
  let g =
    Array.init gates (fun i -> Netlist.reserve_gate ~name:(Printf.sprintf "g%d" i) nl)
  in
  for i = 0 to gates - 1 do
    let ring_w = if i = 0 then 1 + Rng.int rng 2 else Rng.int rng 2 in
    let chord () =
      let j = Rng.int rng gates in
      let w = if j < i then Rng.int rng 3 else 1 + Rng.int rng 2 in
      (g.(j), w)
    in
    let extra = List.init (Rng.int rng k) (fun _ -> chord ()) in
    let extra =
      if Rng.int rng 2 = 0 then (Rng.pick rng chain, Rng.int rng 2) :: extra
      else extra
    in
    let fanins =
      Array.of_list
        ((g.((i + gates - 1) mod gates), ring_w)
        :: List.filteri (fun idx _ -> idx < k - 1) extra)
    in
    Netlist.define_gate nl g.(i)
      (Truthtable.random_nondegenerate rng (Array.length fanins))
      fanins
  done;
  ignore (Netlist.add_po ~name:"y" nl ~driver:g.(gates - 1) ~weight:0);
  nl

(* The search's probes of one call: (phi, verdict, cause) of every
   [search.probe] record, in order. *)
let probe_verdicts f =
  let r, recs = probe_records f in
  ( r,
    List.map
      (fun fields ->
        match
          ( List.assoc "phi" fields,
            List.assoc "feasible" fields,
            List.assoc "cause" fields )
        with
        | Obs.Json.Str p, Obs.Json.Bool ok, Obs.Json.Str c -> (p, ok, c)
        | _ -> Alcotest.fail "probe event without phi, verdict or cause")
      recs )

(* The periodic stop is exact: with PLD on and off, on random circuits
   and on marked-graph rings, K in 2..4, TurboMap and TurboSYN options,
   a run that PLD ends by convergence or by the periodic stop gives the
   verdict and labels of the run without PLD.  Three views of that:

   - the ratio search, probe by probe;
   - a sweep of label runs sharing one resynthesis cache and cut memo,
     as the search's probes do, over the probed phis and a grid around
     them, run by run, so the rounds a periodic stop skips must write
     nothing a later run reads;
   - each grid phi in a fresh run.

   PLD's older stops, the 6m isolation gate and the label bound, are
   not exact on these shapes (a TurboSYN ring whose labels converge
   after round 6m can look isolated before), so a shared-state view is
   compared only up to the first run one of them decides, and phi* only
   when none did. *)
let qcheck_periodic_exact =
  QCheck.Test.make ~name:"pld on and off agree probe by probe" ~count:100
    QCheck.(
      make
        ~print:(fun (seed, k, ring) ->
          Printf.sprintf "seed=%d k=%d ring=%b" seed k ring)
        Gen.(triple (0 -- 1_000_000) (2 -- 4) bool))
    (fun (seed, k, ring) ->
      let rng = Rng.create seed in
      let nl =
        if ring then marked_ring rng ~gates:(3 + Rng.int rng 8) ~k
        else Random_circuit.seq rng ~pis:2 ~gates:(6 + Rng.int rng 10) ~max_arity:k
      in
      let rat_of p =
        match String.split_on_char '/' p with
        | [ n ] -> Rat.of_int (int_of_string n)
        | [ n; d ] -> Rat.make (int_of_string n) (int_of_string d)
        | _ -> Alcotest.fail ("unparsable phi " ^ p)
      in
      let grid =
        List.map
          (fun (p, q) -> Rat.make p q)
          [ (1, 1); (5, 4); (4, 3); (3, 2); (5, 3); (2, 1); (9, 4); (5, 2);
            (3, 1); (4, 1) ]
      in
      let exact c = c = "converged" || c = "periodic" in
      (* [(answer, cause)] with PLD on against the answers without it *)
      let rec agree xs ys =
        match (xs, ys) with
        | [], [] -> true
        | (a, c) :: xs, b :: ys -> (not (exact c)) || (a = b && agree xs ys)
        | _ -> false
      in
      let run ?cache ?cutmemo opts phi =
        let out, st = Label_engine.run ?cache ?cutmemo opts nl ~phi in
        ( (match out with
          | Label_engine.Feasible { labels; _ } -> labels_digest labels
          | Label_engine.Infeasible -> "-"),
          Label_engine.cause_name st.Label_engine.cause )
      in
      let on = Label_engine.default_options ~k in
      List.for_all
        (fun on ->
          let off = { on with Label_engine.pld = false } in
          let search opts =
            probe_verdicts (fun () ->
                Turbomap.minimum_ratio ~cache:(Label_engine.new_cache ())
                  ~cutmemo:(Label_engine.new_cut_memo nl) opts nl)
          in
          let (phi_on, _, _), probes_on = search on in
          let (phi_off, _, _), probes_off = search off in
          let sweep opts =
            let cache = Label_engine.new_cache () in
            let cutmemo = Label_engine.new_cut_memo nl in
            List.map (run ~cache ~cutmemo opts)
              (List.map (fun (p, _, _) -> rat_of p) probes_on @ grid)
          in
          let answers = List.map fst in
          agree
            (List.map (fun (p, ok, c) -> ((p, ok), c)) probes_on)
            (List.map (fun (p, ok, _) -> (p, ok)) probes_off)
          && ((not (List.for_all (fun (_, _, c) -> exact c) probes_on))
             || Rat.equal phi_on phi_off)
          && agree (sweep on) (answers (sweep off))
          && List.for_all
               (fun phi ->
                 let a, c = run on phi in
                 (not (exact c)) || a = fst (run off phi))
               grid)
        [ on; { on with Label_engine.resynthesize = true } ])

let test_full_expansion_agrees () =
  (* the SeqMapII-style construction must agree on feasibility; it only
     costs more *)
  let nl = pi_loop 4 2 in
  let partial = Label_engine.default_options ~k:3 in
  let full = { partial with Label_engine.full_expansion = true; max_expansion = 20000 } in
  List.iter
    (fun phi ->
      let a = fst (Label_engine.run partial nl ~phi) in
      let b = fst (Label_engine.run full nl ~phi) in
      let feas = function Label_engine.Feasible _ -> true | _ -> false in
      Alcotest.(check bool)
        (Format.asprintf "agree at %a" Rat.pp phi)
        (feas a) (feas b))
    [ Rat.one; Rat.make 3 2; Rat.of_int 2; Rat.make 1 2 ]

let test_realize () =
  let nl = pi_loop 3 1 in
  let mapped, _, _ = Stages.map (Label_engine.default_options ~k:5) nl in
  match Turbomap.realize_full mapped with
  | None -> Alcotest.fail "no comb loop expected"
  | Some (final, period, _latency, _r) ->
      Alcotest.(check int) "period is ceil(mdr)"
        (match Netlist.mdr_ratio mapped with
        | Graphs.Cycle_ratio.Ratio r -> max 1 (Rat.ceil r)
        | _ -> 1)
        period;
      Alcotest.(check int) "achieved" period (Retime.Retiming.clock_period final)

let test_obs_counters_on_suite () =
  (* a TurboSYN search over a real suite workload must exercise the
     instrumented hot paths: flow-based cut tests, decomposition
     attempts, and max-flow augmentation all leave nonzero counters *)
  let spec = Option.get (Workloads.Suite.find "bbara") in
  let nl = Workloads.Suite.build spec in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let opts =
        { (Label_engine.default_options ~k:5) with
          Label_engine.resynthesize = true }
      in
      let _phi, _, _ = Turbomap.minimum_ratio opts nl in
      let nonzero name =
        match Obs.Counter.find name with
        | Some v when v > 0 -> ()
        | Some v -> Alcotest.failf "%s = %d, expected nonzero" name v
        | None -> Alcotest.failf "counter %s never registered" name
      in
      List.iter nonzero
        [
          "label.iterations";
          "label.cut_tests";
          "label.decomp_attempts";
          "maxflow.augmenting_paths";
          "expand.builds";
        ];
      match Obs.Span.all_full () |> List.filter (fun (_, _, n, _) -> n > 0) with
      | [] -> Alcotest.fail "no span recorded any entries"
      | _ -> ())

let test_map_preserves_interface () =
  let rng = Rng.create 555 in
  let nl = Random_circuit.seq rng ~pis:4 ~gates:8 ~max_arity:3 in
  let mapped, _, _ = Stages.map (Label_engine.default_options ~k:4) nl in
  Alcotest.(check (list string)) "pi names"
    (List.map (Netlist.node_name nl) (Netlist.pis nl))
    (List.map (Netlist.node_name mapped) (Netlist.pis mapped));
  Alcotest.(check (list string)) "po names"
    (List.map (Netlist.node_name nl) (Netlist.pos nl))
    (List.map (Netlist.node_name mapped) (Netlist.pos mapped))

let () =
  Alcotest.run "seqmap"
    [
      ( "expanded",
        [
          Alcotest.test_case "basic" `Quick test_expanded_basic;
          Alcotest.test_case "overflow" `Quick test_expanded_overflow;
          Alcotest.test_case "cone function" `Quick test_expanded_cone;
          Alcotest.test_case "frontier cut" `Quick test_frontier_cut;
          QCheck_alcotest.to_alcotest qcheck_snapshot_soundness;
          QCheck_alcotest.to_alcotest qcheck_stable_order;
        ] );
      ( "labels",
        [
          Alcotest.test_case "accumulator" `Quick test_labels_accumulator;
          Alcotest.test_case "minimum ratio accumulator" `Quick
            test_minimum_ratio_accumulator;
          Alcotest.test_case "collapsible loop" `Quick
            test_minimum_ratio_collapsible_loop;
          Alcotest.test_case "acyclic" `Quick test_acyclic_zero;
          QCheck_alcotest.to_alcotest qcheck_c_slow;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "random turbomap" `Slow test_map_random_turbomap;
          Alcotest.test_case "random turbosyn" `Slow test_map_random_turbosyn;
          Alcotest.test_case "turbosyn no worse" `Slow test_turbosyn_no_worse;
          Alcotest.test_case "interface preserved" `Quick
            test_map_preserves_interface;
          Alcotest.test_case "realize" `Quick test_realize;
          Alcotest.test_case "full expansion agrees" `Quick
            test_full_expansion_agrees;
          Alcotest.test_case "obs counters on suite workload" `Slow
            test_obs_counters_on_suite;
        ] );
      ( "engines",
        [
          Alcotest.test_case "golden labels" `Slow test_golden_labels;
          Alcotest.test_case "golden provenance" `Slow test_golden_provenance;
          Alcotest.test_case "ratio search pins" `Slow test_search_pins;
          Alcotest.test_case "jobs other than 1 rejected" `Quick
            test_jobs_rejected;
          Alcotest.test_case "cross-phi cut memo" `Slow test_cut_memo;
          Alcotest.test_case "each phi probed once" `Quick
            test_probe_each_phi_once;
          Alcotest.test_case "each phi probed once, fractional phi*" `Quick
            test_probe_each_phi_once_fractional;
          Alcotest.test_case "arena isolation" `Quick test_arena_isolation;
          Alcotest.test_case "golden mapped BLIFs" `Slow test_golden_blifs;
        ] );
      ( "pld",
        [
          Alcotest.test_case "on/off equivalence" `Slow test_pld_equivalence;
          Alcotest.test_case "saves iterations" `Quick
            test_pld_triggers_and_saves_iterations;
          Alcotest.test_case "probe causes" `Quick test_probe_causes;
          QCheck_alcotest.to_alcotest qcheck_periodic_exact;
        ] );
    ]
