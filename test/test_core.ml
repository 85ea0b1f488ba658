(* Tests for the TurboSYN top-level library: area recovery and the full
   three-algorithm flow. *)

open Prelude
open Logic
open Circuit


(* --- area passes --- *)

let test_dedup_merges () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi ~name:"x" nl in
  let y = Netlist.add_pi ~name:"y" nl in
  let a = Build.and2 nl x y in
  let b = Build.and2 nl x y in
  (* two identical ANDs feeding an OR *)
  let o = Build.or2 nl a b in
  ignore (Netlist.add_po ~name:"z" nl ~driver:o ~weight:0);
  let out = Turbosyn.Area.dedup nl in
  (* a == b merged; or(a,a) stays a 2-input gate reading one driver twice *)
  Alcotest.(check int) "two gates left" 2 (List.length (Netlist.gates out));
  let rng = Rng.create 1 in
  Alcotest.(check bool) "equivalent" true (Sim.Equiv.io_equal rng nl out)

let test_dedup_removes_dead () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi ~name:"x" nl in
  let live = Build.not_ nl x in
  let _dead = Build.and2 nl x x in
  ignore (Netlist.add_po ~name:"z" nl ~driver:live ~weight:0);
  let out = Turbosyn.Area.dedup nl in
  Alcotest.(check int) "dead gate dropped" 1 (List.length (Netlist.gates out))

let test_dedup_keeps_weights_distinct () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi ~name:"x" nl in
  let a = Build.buf ~w:1 nl x in
  let b = Build.buf ~w:2 nl x in
  ignore (Netlist.add_po nl ~driver:a ~weight:0);
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  let out = Turbosyn.Area.dedup nl in
  Alcotest.(check int) "different delays kept" 2 (List.length (Netlist.gates out))

let test_pack_absorbs_chain () =
  (* not(not(x)) with single fanouts collapses into one LUT *)
  let nl = Netlist.create () in
  let x = Netlist.add_pi ~name:"x" nl in
  let a = Build.not_ nl x in
  let b = Build.not_ nl a in
  ignore (Netlist.add_po ~name:"z" nl ~driver:b ~weight:0);
  let out = Turbosyn.Area.pack nl ~k:4 in
  Alcotest.(check int) "one lut" 1 (List.length (Netlist.gates out));
  let rng = Rng.create 2 in
  Alcotest.(check bool) "equivalent" true (Sim.Equiv.io_equal rng nl out)

let test_pack_respects_k () =
  (* two 3-input gates feeding a 2-input gate: merged support 6 > k=4 *)
  let nl = Netlist.create () in
  let pis = Array.init 6 (fun i -> Netlist.add_pi ~name:(Printf.sprintf "x%d" i) nl) in
  let g1 = Netlist.add_gate nl (Truthtable.xor_all 3) [| (pis.(0), 0); (pis.(1), 0); (pis.(2), 0) |] in
  let g2 = Netlist.add_gate nl (Truthtable.xor_all 3) [| (pis.(3), 0); (pis.(4), 0); (pis.(5), 0) |] in
  let o = Build.and2 nl g1 g2 in
  ignore (Netlist.add_po ~name:"z" nl ~driver:o ~weight:0);
  let out = Turbosyn.Area.pack nl ~k:4 in
  (* absorbing one xor3 gives a 4-input LUT (fits k=4); the second would
     need 6 inputs, so exactly one merge happens *)
  Alcotest.(check int) "one merge at k=4" 2 (List.length (Netlist.gates out));
  let out6 = Turbosyn.Area.pack nl ~k:6 in
  Alcotest.(check int) "full merge at k=6" 1 (List.length (Netlist.gates out6));
  let rng = Rng.create 3 in
  Alcotest.(check bool) "equivalent" true (Sim.Equiv.io_equal rng nl out6)

let test_pack_respects_registers () =
  (* the intermediate signal is read through a register: cannot be packed *)
  let nl = Netlist.create () in
  let x = Netlist.add_pi ~name:"x" nl in
  let a = Build.not_ nl x in
  let b = Build.buf ~w:1 nl a in
  ignore (Netlist.add_po ~name:"z" nl ~driver:b ~weight:0);
  let out = Turbosyn.Area.pack nl ~k:4 in
  Alcotest.(check int) "register blocks packing" 2
    (List.length (Netlist.gates out))

let test_reduce_random_equivalence () =
  let rng = Rng.create 77 in
  for _ = 1 to 12 do
    let nl =
      Workloads.Generate.mixer rng ~pis:3 ~pos:2 ~gates:20 ~ff_density:0.2
    in
    let out = Turbosyn.Area.reduce nl ~k:5 in
    Alcotest.(check bool) "reduced equivalent" true
      (Sim.Equiv.io_equal ~cycles:32 ~runs:3 rng nl out);
    Alcotest.(check bool) "not larger" true
      (List.length (Netlist.gates out) <= List.length (Netlist.gates nl));
    (* MDR must not get worse *)
    match (Netlist.mdr_ratio nl, Netlist.mdr_ratio out) with
    | Graphs.Cycle_ratio.Ratio before, Graphs.Cycle_ratio.Ratio after ->
        Alcotest.(check bool) "mdr not worse" true Rat.(after <= before)
    | _, Graphs.Cycle_ratio.No_cycle -> ()
    | a, b ->
        Alcotest.failf "unexpected mdr results %b %b"
          (a = Graphs.Cycle_ratio.Infinite)
          (b = Graphs.Cycle_ratio.Infinite)
  done

(* What the Area header promises, on random sequential circuits with
   feedback: [reduce ~k] never adds a gate, never raises the MDR ratio
   and keeps the PO sequences. *)
let qcheck_reduce =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_bound 1_000_000 in
      let* gates = int_range 2 24 in
      let* k = int_range 2 6 in
      return (seed, gates, k))
  in
  let print (seed, gates, k) =
    Printf.sprintf "seed %d, %d gates, k %d" seed gates k
  in
  let mdr_le a b =
    match (a, b) with
    | Graphs.Cycle_ratio.No_cycle, _ -> true
    | Graphs.Cycle_ratio.Ratio x, Graphs.Cycle_ratio.Ratio y -> Rat.(x <= y)
    | _, Graphs.Cycle_ratio.Infinite -> true
    | _ -> false
  in
  Test.make ~count:200
    ~name:"reduce keeps gates, MDR ratio and PO sequences"
    (make ~print gen)
    (fun (seed, gates, k) ->
      let rng = Rng.create seed in
      let nl = Random_circuit.seq rng ~pis:3 ~gates ~max_arity:(min k 4) in
      let out = Turbosyn.Area.reduce nl ~k in
      List.length (Netlist.gates out) <= List.length (Netlist.gates nl)
      && mdr_le (Netlist.mdr_ratio out) (Netlist.mdr_ratio nl)
      && Sim.Equiv.io_equal ~cycles:32 ~runs:3 rng nl out)

(* --- full flow --- *)

let small_fsm () =
  let rng = Rng.create 41 in
  Workloads.Generate.fsm rng ~pis:3 ~pos:2 ~gates:24 ~ffs:3

let test_run_all_algorithms () =
  let nl = small_fsm () in
  let opts = Turbosyn.Synth.default_options ~k:4 () in
  let rng = Rng.create 7 in
  let results =
    List.map
      (fun algo -> Turbosyn.Synth.run ~options:opts algo nl)
      [ `Turbosyn; `Turbomap; `Flowsyn_s ]
  in
  List.iter
    (fun r ->
      Alcotest.(check (list string)) "valid mapped" []
        (List.map
           (Format.asprintf "%a" Netlist.pp_error)
           (Netlist.validate ~k:4 r.Turbosyn.Synth.mapped));
      Alcotest.(check bool) "luts positive" true (r.Turbosyn.Synth.luts > 0);
      Alcotest.(check bool) "area never grows" true
        (r.Turbosyn.Synth.luts <= r.Turbosyn.Synth.luts_before_area);
      Alcotest.(check bool) "realized" true (r.Turbosyn.Synth.realized <> None);
      (match r.Turbosyn.Synth.realized with
      | Some real ->
          Alcotest.(check int) "period achieved" r.Turbosyn.Synth.clock_period
            (Retime.Retiming.clock_period real)
      | None -> ());
      (* mapped circuits are equivalent to the source (consistent-initial
         -state equivalence) *)
      Alcotest.(check bool) "mapped equal" true
        (Sim.Equiv.mapped_equal ~runs:2 ~cycles:24 ~warmup:32 rng nl
           r.Turbosyn.Synth.mapped))
    results;
  (* ordering: TurboSYN <= TurboMap on phi *)
  match results with
  | [ ts; tm; _fs ] ->
      Alcotest.(check bool)
        (Format.asprintf "ts %a <= tm %a" Rat.pp ts.Turbosyn.Synth.phi Rat.pp
           tm.Turbosyn.Synth.phi)
        true
        Rat.(ts.Turbosyn.Synth.phi <= tm.Turbosyn.Synth.phi)
  | _ -> Alcotest.fail "three results"

(* A ring of 9 xor gates (each with its own PI) and 3 registers clustered
   on consecutive edges.  FlowSYN-s must map the 7-gate register-free
   segment and two 1-gate segments separately (5 LUTs on the loop, MDR
   5/3); TurboMap/TurboSYN can pack 3 chain gates per 4-LUT regardless of
   the register positions (3 LUTs, MDR 1). *)
let fragmented_ring () =
  let nl = Netlist.create ~name:"frag" () in
  let g = 9 in
  let pis = Array.init g (fun i -> Netlist.add_pi ~name:(Printf.sprintf "x%d" i) nl) in
  let gates = Array.init g (fun i -> Netlist.reserve_gate ~name:(Printf.sprintf "g%d" i) nl) in
  for i = 0 to g - 1 do
    let w = if i < 3 then 1 else 0 in
    Netlist.define_gate nl gates.(i) (Truthtable.xor_all 2)
      [| (pis.(i), 0); (gates.((i + g - 1) mod g), w) |]
  done;
  ignore (Netlist.add_po ~name:"y" nl ~driver:gates.(g - 1) ~weight:0);
  nl

let test_turbosyn_beats_flowsyn_on_fragmented_loop () =
  let nl = fragmented_ring () in
  let opts = Turbosyn.Synth.default_options ~k:4 () in
  let ts = Turbosyn.Synth.run ~options:opts `Turbosyn nl in
  let tm = Turbosyn.Synth.run ~options:opts `Turbomap nl in
  let fs = Turbosyn.Synth.run ~options:opts `Flowsyn_s nl in
  Alcotest.(check bool)
    (Format.asprintf "turbomap %a beats flowsyn-s %a" Rat.pp
       tm.Turbosyn.Synth.phi Rat.pp fs.Turbosyn.Synth.phi)
    true
    Rat.(tm.Turbosyn.Synth.phi < fs.Turbosyn.Synth.phi);
  Alcotest.(check bool) "turbosyn no worse than turbomap" true
    Rat.(ts.Turbosyn.Synth.phi <= tm.Turbosyn.Synth.phi);
  (* TurboSYN reaches at least ratio 1 (and can go below by unrolling the
     whole cycle into a multi-register self-loop) *)
  Alcotest.(check bool) "turbosyn reaches 1 or better" true
    Rat.(ts.Turbosyn.Synth.phi <= Rat.one);
  (* and TurboSYN must never be worse than FlowSYN-s on random circuits *)
  let rng = Rng.create 99 in
  for _ = 1 to 3 do
    let nl = Workloads.Generate.mixer rng ~pis:3 ~pos:2 ~gates:15 ~ff_density:0.3 in
    let ts = Turbosyn.Synth.run ~options:opts `Turbosyn nl in
    let fs = Turbosyn.Synth.run ~options:opts `Flowsyn_s nl in
    Alcotest.(check bool) "never worse on phi" true
      Rat.(ts.Turbosyn.Synth.phi <= fs.Turbosyn.Synth.phi)
  done

let test_relax_saves_area () =
  (* the fig1-style cycle: TurboSYN needs its decomposition on the cycle
     nodes but not elsewhere; relaxation must keep phi while never adding
     LUTs, and the result must stay correct *)
  let nl = fragmented_ring () in
  let opts = Seqmap.Label_engine.default_options ~k:4 in
  let opts = { opts with Seqmap.Label_engine.resynthesize = true } in
  let mapped, report, impls = Seqmap.Turbomap.map_full ~options:opts nl ~k:4 in
  let relaxed_nl, n_relaxed = Turbosyn.Relax.relax nl ~impls ~phi:report.Seqmap.Turbomap.phi in
  Alcotest.(check bool) "relaxation count sane" true (n_relaxed >= 0);
  (match Netlist.mdr_ratio relaxed_nl with
  | Graphs.Cycle_ratio.Ratio r ->
      Alcotest.(check bool) "phi preserved" true
        Rat.(r <= report.Seqmap.Turbomap.phi)
  | Graphs.Cycle_ratio.No_cycle -> ()
  | Graphs.Cycle_ratio.Infinite -> Alcotest.fail "combinational loop");
  Alcotest.(check bool) "not larger than unrelaxed" true
    (List.length (Netlist.gates relaxed_nl)
    <= List.length (Netlist.gates mapped) + 0);
  let rng = Rng.create 12 in
  Alcotest.(check bool) "relaxed mapping equivalent" true
    (Sim.Equiv.mapped_equal rng nl relaxed_nl)

(* [Relax.relax] reads every LUT function from one memo for the whole
   call.  Its oracle is the plain greedy loop, regenerating each
   candidate mapping from scratch: on the TurboSYN labels of five suite
   circuits both must give the same BLIF text and relaxed count. *)
let relax_reference nl ~impls ~phi =
  let meets_phi m =
    match Netlist.mdr_ratio m with
    | Graphs.Cycle_ratio.Ratio r -> Rat.(r <= phi)
    | Graphs.Cycle_ratio.No_cycle -> true
    | Graphs.Cycle_ratio.Infinite -> false
  in
  (* the node's fanins, first occurrence of each kept, in order *)
  let trivial_cut v =
    Array.of_list
      (List.rev
         (Array.fold_left
            (fun acc p -> if List.mem p acc then acc else p :: acc)
            [] (Netlist.fanins nl v)))
  in
  let current = Array.copy impls in
  let best = ref (Seqmap.Mapgen.generate nl ~impls:current) in
  let relaxed = ref 0 in
  Array.iteri
    (fun v impl ->
      match impl with
      | Some (Seqmap.Label_engine.Resyn _) ->
          let saved = current.(v) in
          current.(v) <- Some (Seqmap.Label_engine.Cut (trivial_cut v));
          let candidate = Seqmap.Mapgen.generate nl ~impls:current in
          if
            meets_phi candidate
            && Seqmap.Mapgen.lut_count candidate
               <= Seqmap.Mapgen.lut_count !best
          then begin
            best := candidate;
            incr relaxed
          end
          else current.(v) <- saved
      | _ -> ())
    impls;
  (!best, !relaxed)

let test_relax_matches_reference () =
  let so = Turbosyn.Synth.default_options ~k:5 () in
  let opts = Turbosyn.Synth.engine_options so ~resynthesize:true in
  List.iter
    (fun name ->
      let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
      let _, report, impls =
        Seqmap.Turbomap.map_full ~options:opts
          ?phi_max_den:so.Turbosyn.Synth.phi_max_den nl ~k:5
      in
      let phi = report.Seqmap.Turbomap.phi in
      let got, n_got = Turbosyn.Relax.relax nl ~impls ~phi in
      let want, n_want = relax_reference nl ~impls ~phi in
      Alcotest.(check int) (name ^ " relaxed count") n_want n_got;
      Alcotest.(check string) (name ^ " relaxed BLIF") (Blif.to_string want)
        (Blif.to_string got))
    [ "bbara"; "bbsse"; "cse"; "s298"; "dk16" ]

(* Realization's FF minimization on real mappings: the lags [Synth.run]
   returns equal the whole-circuit reference search from the same
   pipelined start. *)
let test_ffmin_matches_reference () =
  let options = Turbosyn.Synth.default_options ~k:5 () in
  List.iter
    (fun (name, algo) ->
      let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
      let res = Turbosyn.Synth.run ~options algo nl in
      let mapped = res.Turbosyn.Synth.mapped in
      let period, r = Retime.Pipeline.min_period mapped in
      let want = Ffmin_reference.reference_minimize_ffs mapped ~period ~r in
      let what = name ^ " " ^ Turbosyn.Synth.algo_name algo in
      Alcotest.(check (array int)) (what ^ " minimize_ffs") want
        (Retime.Retiming.minimize_ffs mapped ~period ~r);
      Alcotest.(check (option (array int))) (what ^ " realized lags")
        (Some want) res.Turbosyn.Synth.lags)
    (List.concat_map
       (fun name -> [ (name, `Turbomap); (name, `Flowsyn_s) ])
       [ "bbara"; "s298"; "s1423" ])

(* FlowSYN-s phi and clock period on every Table-1 row at K = 5.  The
   baseline keeps each register where the source puts it, so how its LUT
   network is emitted must not move either figure. *)
let test_flowsyn_s_table1 () =
  let options = Turbosyn.Synth.default_options ~k:5 () in
  List.iter
    (fun (name, (num, den), period) ->
      let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find name)) in
      let r = Turbosyn.Synth.run ~options `Flowsyn_s nl in
      Alcotest.(check string) (name ^ " phi")
        (Rat.to_string (Rat.make num den))
        (Rat.to_string r.Turbosyn.Synth.phi);
      Alcotest.(check int) (name ^ " clock period") period
        r.Turbosyn.Synth.clock_period)
    [
      ("bbara", (2, 1), 2); ("bbsse", (6, 1), 6); ("cse", (5, 1), 5);
      ("dk16", (6, 1), 6); ("donfile", (4, 1), 4); ("ex1", (7, 1), 7);
      ("keyb", (8, 1), 8); ("planet", (8, 1), 8); ("s1", (8, 1), 8);
      ("sand", (11, 1), 11); ("styr", (9, 1), 9); ("tbk", (6, 1), 6);
      ("s298", (4, 1), 4); ("s420", (9, 2), 4); ("s526", (9, 2), 5);
      ("s1423", (1, 1), 1);
    ]

let test_multi_output_never_worse () =
  (* multi-output decomposition can only widen the search: phi never gets
     worse, results stay equivalent *)
  let rng = Rng.create 71 in
  for _ = 1 to 3 do
    let nl = Workloads.Generate.mixer rng ~pis:3 ~pos:2 ~gates:16 ~ff_density:0.3 in
    let base = Turbosyn.Synth.default_options ~k:4 () in
    let single = Turbosyn.Synth.run ~options:base `Turbosyn nl in
    let multi =
      Turbosyn.Synth.run
        ~options:{ base with Turbosyn.Synth.multi_output = true }
        `Turbosyn nl
    in
    Alcotest.(check bool)
      (Format.asprintf "multi %a <= single %a" Rat.pp
         multi.Turbosyn.Synth.phi Rat.pp single.Turbosyn.Synth.phi)
      true
      Rat.(multi.Turbosyn.Synth.phi <= single.Turbosyn.Synth.phi);
    Alcotest.(check bool) "multi result equivalent" true
      (Sim.Equiv.mapped_equal ~runs:2 ~cycles:24 rng nl multi.Turbosyn.Synth.mapped)
  done

let test_outputs_consumable () =
  (* mapped results survive BLIF and Verilog emission and BLIF reparse *)
  let rng = Rng.create 72 in
  let nl = Workloads.Generate.fsm rng ~pis:3 ~pos:2 ~gates:20 ~ffs:3 in
  let r = Turbosyn.Synth.run ~options:(Turbosyn.Synth.default_options ~k:4 ()) `Turbosyn nl in
  let blif = Circuit.Blif.to_string r.Turbosyn.Synth.mapped in
  (match Circuit.Blif.parse_string blif with
  | Error e -> Alcotest.failf "mapped BLIF reparse: %s" e
  | Ok back ->
      Alcotest.(check bool) "roundtrip equal" true
        (Circuit.Blif.roundtrip_equal r.Turbosyn.Synth.mapped back));
  let v = Circuit.Verilog.to_string r.Turbosyn.Synth.mapped in
  Alcotest.(check bool) "verilog nonempty" true (String.length v > 100)

(* --- workloads --- *)

let test_suite_builds () =
  List.iter
    (fun spec ->
      let nl = Workloads.Suite.build spec in
      let s = Netlist.stats nl in
      Alcotest.(check string) "named" spec.Workloads.Suite.name (Netlist.name nl);
      Alcotest.(check (list string)) "valid" []
        (List.map (Format.asprintf "%a" Netlist.pp_error) (Netlist.validate ~k:4 nl));
      Alcotest.(check bool)
        (Printf.sprintf "%s gate count %d ~ %d" spec.Workloads.Suite.name
           s.Netlist.n_gates spec.Workloads.Suite.gates)
        true
        (abs (s.Netlist.n_gates - spec.Workloads.Suite.gates)
        <= (spec.Workloads.Suite.gates / 3) + 8);
      Alcotest.(check bool) "has registers" true (s.Netlist.n_ff > 0);
      (* sequential benchmarks must have loops (MDR defined) *)
      match Netlist.mdr_ratio nl with
      | Graphs.Cycle_ratio.Ratio _ -> ()
      | Graphs.Cycle_ratio.No_cycle ->
          Alcotest.failf "%s has no loops" spec.Workloads.Suite.name
      | Graphs.Cycle_ratio.Infinite ->
          Alcotest.failf "%s has a combinational loop" spec.Workloads.Suite.name)
    Workloads.Suite.table1

let test_suite_deterministic () =
  let spec = Option.get (Workloads.Suite.find "bbara") in
  let a = Workloads.Suite.build spec and b = Workloads.Suite.build spec in
  Alcotest.(check bool) "identical builds" true (Circuit.Blif.roundtrip_equal a b)

let test_generators_simulate () =
  let rng = Rng.create 31 in
  let lfsr = Workloads.Generate.lfsr rng ~bits:8 ~taps:3 in
  let outs =
    Sim.Simulator.run lfsr (Array.init 40 (fun i -> [| i = 0 |]))
  in
  Alcotest.(check bool) "lfsr nonconstant" true
    (Array.exists (fun o -> o.(0)) outs);
  let counter = Workloads.Generate.counter ~bits:4 in
  let outs = Sim.Simulator.run counter (Array.make 20 [| true |]) in
  (* msb of a 4-bit counter goes high at step 8 (value 8 reached) *)
  Alcotest.(check bool) "msb low early" false outs.(3).(0);
  Alcotest.(check bool) "msb high at 8" true outs.(8).(0)

let test_crc_and_traffic () =
  (* CRC: a single 1 injected into an all-zero register ring must reappear
     at the output within [bits] cycles and keep the state non-zero *)
  let crc = Workloads.Generate.crc ~bits:8 ~taps:[ 3; 5 ] in
  let outs =
    Sim.Simulator.run crc (Array.init 24 (fun i -> [| i = 0 |]))
  in
  Alcotest.(check bool) "crc output becomes active" true
    (Array.exists (fun o -> o.(0)) outs);
  (match Netlist.mdr_ratio crc with
  | Graphs.Cycle_ratio.Ratio r ->
      (* the tightest loop (msb tap) has one more gate than registers *)
      Alcotest.(check bool) "crc mdr <= 2" true Rat.(r <= Rat.of_int 2)
  | _ -> Alcotest.fail "crc must have loops");
  (* traffic FSM: from reset (G1) with cross traffic, green2 must
     eventually rise, and green1 again after that *)
  let tl = Workloads.Generate.traffic () in
  let inputs = Array.init 16 (fun _ -> [| true; true |]) in
  let outs = Sim.Simulator.run tl inputs in
  let idx_green2 = 2 in
  Alcotest.(check bool) "green2 reached" true
    (Array.exists (fun o -> o.(idx_green2)) outs);
  (* the controller is a real sequential circuit for the mapper *)
  let r = Turbosyn.Synth.run ~options:(Turbosyn.Synth.default_options ~k:4 ()) `Turbosyn tl in
  Alcotest.(check bool) "traffic maps and verifies" true
    (Sim.Equiv.mapped_equal (Rng.create 5) tl r.Turbosyn.Synth.mapped)

let test_find () =
  Alcotest.(check bool) "bbara found" true (Workloads.Suite.find "bbara" <> None);
  Alcotest.(check bool) "big4k found" true (Workloads.Suite.find "big4k" <> None);
  Alcotest.(check bool) "missing" true (Workloads.Suite.find "nope" = None)

let () =
  Alcotest.run "core"
    [
      ( "area",
        [
          Alcotest.test_case "dedup merges" `Quick test_dedup_merges;
          Alcotest.test_case "dedup dead" `Quick test_dedup_removes_dead;
          Alcotest.test_case "dedup weights" `Quick test_dedup_keeps_weights_distinct;
          Alcotest.test_case "pack chain" `Quick test_pack_absorbs_chain;
          Alcotest.test_case "pack k" `Quick test_pack_respects_k;
          Alcotest.test_case "pack registers" `Quick test_pack_respects_registers;
          Alcotest.test_case "reduce equivalence" `Slow test_reduce_random_equivalence;
          QCheck_alcotest.to_alcotest qcheck_reduce;
        ] );
      ( "flow",
        [
          Alcotest.test_case "all algorithms" `Slow test_run_all_algorithms;
          Alcotest.test_case "turbosyn vs flowsyn" `Slow
            test_turbosyn_beats_flowsyn_on_fragmented_loop;
          Alcotest.test_case "label relaxation" `Slow test_relax_saves_area;
          Alcotest.test_case "relax matches reference" `Slow
            test_relax_matches_reference;
          Alcotest.test_case "multi-output flow" `Slow test_multi_output_never_worse;
          Alcotest.test_case "ff minimization matches reference" `Quick
            test_ffmin_matches_reference;
          Alcotest.test_case "flowsyn-s table 1 at k=5" `Quick
            test_flowsyn_s_table1;
          Alcotest.test_case "emission" `Quick test_outputs_consumable;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "suite builds" `Slow test_suite_builds;
          Alcotest.test_case "deterministic" `Quick test_suite_deterministic;
          Alcotest.test_case "generators simulate" `Quick test_generators_simulate;
          Alcotest.test_case "crc and traffic" `Slow test_crc_and_traffic;
          Alcotest.test_case "find" `Quick test_find;
        ] );
    ]
