(* Benchmark harness: regenerates every table of the paper's evaluation
   section plus the ablations DESIGN.md lists.

     dune exec bench/main.exe                -- tables 1-3 + ablations
     dune exec bench/main.exe -- table1      -- clock periods + CPU (Table 1)
     dune exec bench/main.exe -- table2      -- area (LUT counts)
     dune exec bench/main.exe -- table3      -- PLD speedup + scalability
     dune exec bench/main.exe -- ablation-k  -- K sweep
     dune exec bench/main.exe -- ablation-cmax
     dune exec bench/main.exe -- ablation-mdr
     dune exec bench/main.exe -- ablation-seqmap2
     dune exec bench/main.exe -- stats --diff BASE.json CUR.json
                                             -- stats regression gate
     dune exec bench/main.exe -- all         -- every table and ablation

   Stats documents come from the CLI alone; the committed baseline is
   regenerated with
     dune exec bin/turbosyn_cli.exe -- map -w bbara -a turbosyn \
       --stats BENCH_stats_baseline.json

   Absolute numbers are machine-local; what must match the paper is the
   SHAPE: TurboSYN beating FlowSYN-s beating-or-tying TurboMap on clock
   period (the paper reports 1.72x / 1.96x mean period reductions for
   TurboSYN), TurboSYN paying area for its decompositions, and PLD cutting
   label-computation work by an order of magnitude on infeasible probes. *)

open Prelude

let algos =
  [ ("FlowSYN-s", `Flowsyn_s); ("TurboMap", `Turbomap); ("TurboSYN", `Turbosyn) ]

(* one run per (circuit, algo, k) across all tables *)
let run_cache : (string * string * int, Turbosyn.Synth.result) Hashtbl.t =
  Hashtbl.create 64

let algo_tag = function
  | `Turbosyn -> "ts"
  | `Turbomap -> "tm"
  | `Flowsyn_s -> "fs"

let run_algo ?(k = 5) algo nl =
  let key = (Circuit.Netlist.name nl, algo_tag algo, k) in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
      let options = Turbosyn.Synth.default_options ~k () in
      let r = Turbosyn.Synth.run ~options algo nl in
      Hashtbl.replace run_cache key r;
      r

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Table 1: minimum clock period (MDR ratio) and CPU time              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Format.printf
    "@.== Table 1: clock period (min MDR ratio phi) and CPU seconds, K=5 ==@.";
  let t =
    Table.create
      ([ ("circuit", Table.Left); ("GATE", Table.Right); ("FF", Table.Right) ]
      @ List.concat_map
          (fun (name, _) ->
            [
              (name ^ " phi", Table.Right);
              ("CPU", Table.Right);
              ("tests", Table.Right);
            ])
          algos)
  in
  let ratios_fs = ref [] and ratios_tm = ref [] in
  List.iter
    (fun spec ->
      let nl = Workloads.Suite.build spec in
      let s = Circuit.Netlist.stats nl in
      let results =
        List.map
          (fun (name, a) ->
            let r = run_algo a nl in
            Format.eprintf "[table1] %s %s: phi=%s %.1fs@."
              spec.Workloads.Suite.name name
              (Rat.to_string r.Turbosyn.Synth.phi)
              r.Turbosyn.Synth.cpu_seconds;
            r)
          algos
      in
      let cells =
        List.concat_map
          (fun r ->
            [
              Rat.to_string r.Turbosyn.Synth.phi;
              Printf.sprintf "%.2f" r.Turbosyn.Synth.cpu_seconds;
              (* per-run stats: K-feasible-cut tests of the label engine *)
              (match r.Turbosyn.Synth.label_stats with
              | Some s -> string_of_int s.Seqmap.Label_engine.flow_tests
              | None -> "-");
            ])
          results
      in
      (match results with
      | [ fs; tm; ts ] ->
          let f r = Rat.to_float r.Turbosyn.Synth.phi in
          if f ts > 0.0 then begin
            ratios_fs := (f fs /. f ts) :: !ratios_fs;
            ratios_tm := (f tm /. f ts) :: !ratios_tm
          end
      | _ -> ());
      Table.add_row t
        ([
           spec.Workloads.Suite.name;
           string_of_int s.Circuit.Netlist.n_gates;
           string_of_int s.Circuit.Netlist.n_ff;
         ]
        @ cells))
    Workloads.Suite.table1;
  Table.add_rule t;
  Table.add_row t
    [
      "geomean vs TS";
      "";
      "";
      Printf.sprintf "%.2fx" (geomean !ratios_fs);
      "";
      "";
      Printf.sprintf "%.2fx" (geomean !ratios_tm);
      "";
      "";
      "1.00x";
    ];
  Table.print t;
  Format.printf
    "period reduction of TurboSYN: %.2fx vs FlowSYN-s, %.2fx vs TurboMap \
     (paper: 1.72x, 1.96x)@."
    (geomean !ratios_fs) (geomean !ratios_tm)

(* ------------------------------------------------------------------ *)
(* Table 2: area (LUT counts)                                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Format.printf "@.== Table 2: area (K-LUT counts after area recovery), K=5 ==@.";
  let t =
    Table.create
      ([ ("circuit", Table.Left) ]
      @ List.map (fun (name, _) -> (name, Table.Right)) algos
      @ [ ("TS/TM", Table.Right) ])
  in
  let area_ratio = ref [] in
  List.iter
    (fun spec ->
      let nl = Workloads.Suite.build spec in
      Format.eprintf "[table2] %s@." spec.Workloads.Suite.name;
      let results = List.map (fun (_, a) -> run_algo a nl) algos in
      let luts = List.map (fun r -> r.Turbosyn.Synth.luts) results in
      let ratio =
        match luts with
        | [ _; tm; ts ] when tm > 0 ->
            let r = float_of_int ts /. float_of_int tm in
            area_ratio := r :: !area_ratio;
            Printf.sprintf "%.2f" r
        | _ -> "-"
      in
      Table.add_row t
        ((spec.Workloads.Suite.name :: List.map string_of_int luts) @ [ ratio ]))
    Workloads.Suite.table1;
  Table.add_rule t;
  Table.add_row t
    [ "geomean"; ""; ""; ""; Printf.sprintf "%.2f" (geomean !area_ratio) ];
  Table.print t;
  Format.printf
    "(the paper reports TurboSYN losing area to TurboMap/FlowSYN-s due to \
     single-output decomposition)@."

(* ------------------------------------------------------------------ *)
(* Table 3: PLD speedup and scalability                                *)
(* ------------------------------------------------------------------ *)

let pld_subset = [ "bbara"; "bbsse"; "cse"; "keyb"; "s1" ]

let table3 () =
  Format.printf
    "@.== Table 3a: positive loop detection speedup (TurboMap label \
     computation, K=5) ==@.";
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("phi", Table.Right);
        ("PLD CPU", Table.Right);
        ("noPLD CPU", Table.Right);
        ("speedup", Table.Right);
        ("PLD iters", Table.Right);
        ("noPLD iters", Table.Right);
        ("PLD tests", Table.Right);
        ("noPLD tests", Table.Right);
      ]
  in
  let speedups = ref [] in
  List.iter
    (fun name ->
      let spec = Option.get (Workloads.Suite.find name) in
      let nl = Workloads.Suite.build spec in
      let run ~pld =
        let opts =
          { (Seqmap.Label_engine.default_options ~k:5) with Seqmap.Label_engine.pld }
        in
        let (phi, _, stats), dt =
          (* a coarser ratio grid keeps the no-PLD baseline searches
             tractable; the speedup ratio is what the table reports *)
          Timer.time_cpu (fun () ->
              Seqmap.Turbomap.minimum_ratio ~phi_max_den:8 opts nl)
        in
        ( phi,
          dt,
          stats.Seqmap.Label_engine.iterations,
          stats.Seqmap.Label_engine.flow_tests )
      in
      Format.eprintf "[table3] %s@." name;
      let phi_on, cpu_on, it_on, ft_on = run ~pld:true in
      let phi_off, cpu_off, it_off, ft_off = run ~pld:false in
      let agree = Rat.equal phi_on phi_off in
      let speedup = cpu_off /. Float.max 1e-6 cpu_on in
      speedups := speedup :: !speedups;
      Table.add_row t
        [
          name ^ (if agree then "" else "*");
          Rat.to_string phi_on;
          Printf.sprintf "%.2f" cpu_on;
          Printf.sprintf "%.2f" cpu_off;
          Printf.sprintf "%.1fx" speedup;
          string_of_int it_on;
          string_of_int it_off;
          string_of_int ft_on;
          string_of_int ft_off;
        ])
    pld_subset;
  Table.add_rule t;
  Table.add_row t
    [ "geomean"; ""; ""; ""; Printf.sprintf "%.1fx" (geomean !speedups) ];
  Table.print t;
  Format.printf "(paper: 10x-50x; * marks a phi disagreement, none expected)@.";
  Format.printf
    "@.== Table 3b: scalability with PLD (TurboMap, K=5; the paper's 10^4 \
     gates / 10^3 FFs claim) ==@.";
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("GATE", Table.Right);
        ("FF", Table.Right);
        ("phi", Table.Right);
        ("LUTs", Table.Right);
        ("CPU", Table.Right);
      ]
  in
  List.iter
    (fun spec ->
      let nl = Workloads.Suite.build spec in
      Format.eprintf "[table3b] %s@." spec.Workloads.Suite.name;
      let s = Circuit.Netlist.stats nl in
      let r = run_algo `Turbomap nl in
      Table.add_row t
        [
          spec.Workloads.Suite.name;
          string_of_int s.Circuit.Netlist.n_gates;
          string_of_int s.Circuit.Netlist.n_ff;
          Rat.to_string r.Turbosyn.Synth.phi;
          string_of_int r.Turbosyn.Synth.luts;
          Printf.sprintf "%.1f" r.Turbosyn.Synth.cpu_seconds;
        ])
    (List.filter
       (fun s -> s.Workloads.Suite.gates <= 2000)
       Workloads.Suite.scaling);
  Table.print t;
  Format.printf
    "(larger generated circuits — 4k/8k gates — are exercised by the      ablation-mdr mode; the full mapping flow on them is CPU-bound on this      single-core container)@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_subset = [ "bbara"; "cse" ]

let ablation_k () =
  Format.printf "@.== Ablation: LUT size K (TurboSYN phi/LUTs) ==@.";
  let ks = [ 3; 4; 5; 6 ] in
  let t =
    Table.create
      (("circuit", Table.Left)
      :: List.map (fun k -> (Printf.sprintf "K=%d" k, Table.Right)) ks)
  in
  List.iter
    (fun name ->
      let spec = Option.get (Workloads.Suite.find name) in
      let nl = Workloads.Suite.build spec in
      let cells =
        List.map
          (fun k ->
            let r = run_algo ~k `Turbosyn nl in
            Printf.sprintf "%s/%d"
              (Rat.to_string r.Turbosyn.Synth.phi)
              r.Turbosyn.Synth.luts)
          ks
      in
      Table.add_row t (name :: cells))
    ablation_subset;
  Table.print t

let ablation_cmax () =
  Format.printf "@.== Ablation: decomposition cut bound Cmax (TurboSYN, K=5) ==@.";
  let cmaxes = [ 8; 15; 25 ] in
  let t =
    Table.create
      (("circuit", Table.Left)
      :: List.concat_map
           (fun c ->
             [ (Printf.sprintf "Cmax=%d phi" c, Table.Right); ("CPU", Table.Right) ])
           cmaxes)
  in
  List.iter
    (fun name ->
      let spec = Option.get (Workloads.Suite.find name) in
      let nl = Workloads.Suite.build spec in
      let cells =
        List.concat_map
          (fun cmax ->
            let options =
              { (Turbosyn.Synth.default_options ~k:5 ()) with Turbosyn.Synth.cmax }
            in
            let r = Turbosyn.Synth.run ~options `Turbosyn nl in
            [
              Rat.to_string r.Turbosyn.Synth.phi;
              Printf.sprintf "%.2f" r.Turbosyn.Synth.cpu_seconds;
            ])
          cmaxes
      in
      Table.add_row t (name :: cells))
    ablation_subset;
  Table.print t

let ablation_seqmap2 () =
  Format.printf
    "@.== Ablation: partial flow networks (TurboMap) vs SeqMapII-style full      expansion — one label computation at phi* ==@.";
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("phi*", Table.Right);
        ("partial CPU", Table.Right);
        ("full CPU", Table.Right);
        ("speedup", Table.Right);
        ("partial flow", Table.Right);
        ("full flow", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      Format.eprintf "[seqmap2] %s@." name;
      let spec = Option.get (Workloads.Suite.find name) in
      let nl = Workloads.Suite.build spec in
      let opts = Seqmap.Label_engine.default_options ~k:5 in
      let phi, _, _ = Seqmap.Turbomap.minimum_ratio ~phi_max_den:24 opts nl in
      let time_run o =
        let (_, st), dt =
          Timer.time_cpu (fun () -> Seqmap.Label_engine.run o nl ~phi)
        in
        (dt, st.Seqmap.Label_engine.flow_tests)
      in
      let t_part, f_part = time_run opts in
      let t_full, f_full =
        time_run
          { opts with Seqmap.Label_engine.full_expansion = true; max_expansion = 20000 }
      in
      Table.add_row t
        [
          name;
          Rat.to_string phi;
          Printf.sprintf "%.2f" t_part;
          Printf.sprintf "%.2f" t_full;
          Printf.sprintf "%.1fx" (t_full /. Float.max 1e-6 t_part);
          string_of_int f_part;
          string_of_int f_full;
        ])
    [ "bbara"; "cse"; "keyb"; "s298" ];
  Table.print t;
  Format.printf
    "(the TurboMap lineage's point: partial networks avoid expanding far      below the height threshold; SeqMapII expanded much more)@."

let ablation_mdr () =
  Format.printf
    "@.== Ablation: MDR computation — exact parametric search vs Howard's      policy iteration vs float bisection ==@.";
  let t =
    Table.create
      [
        ("circuit", Table.Left);
        ("exact", Table.Right);
        ("t(ms)", Table.Right);
        ("howard", Table.Right);
        ("t(ms)", Table.Right);
        ("bisect 1e-6", Table.Right);
        ("t(ms)", Table.Right);
      ]
  in
  List.iter
    (fun spec ->
      let nl = Workloads.Suite.build spec in
      let n = Circuit.Netlist.n nl in
      let edges = Circuit.Netlist.retiming_edges nl in
      let exact, t_exact =
        Timer.time (fun () -> Graphs.Cycle_ratio.max_ratio ~n ~edges)
      in
      let hw_edges =
        Array.map
          (fun e ->
            {
              Graphs.Howard.src = e.Graphs.Cycle_ratio.src;
              dst = e.Graphs.Cycle_ratio.dst;
              delay = e.Graphs.Cycle_ratio.delay;
              weight = e.Graphs.Cycle_ratio.weight;
            })
          edges
      in
      let howard, t_howard =
        Timer.time (fun () -> Graphs.Howard.max_ratio ~n ~edges:hw_edges)
      in
      let bisect, t_bisect =
        Timer.time (fun () ->
            Graphs.Cycle_ratio.max_ratio_float ~n ~edges ~epsilon:1e-6)
      in
      let show_exact = function
        | Graphs.Cycle_ratio.Ratio r -> Rat.to_string r
        | Graphs.Cycle_ratio.No_cycle -> "-"
        | Graphs.Cycle_ratio.Infinite -> "inf"
      in
      let show_float = function
        | Graphs.Cycle_ratio.Ratio r -> Printf.sprintf "%.4f" (Rat.to_float r)
        | Graphs.Cycle_ratio.No_cycle -> "-"
        | Graphs.Cycle_ratio.Infinite -> "inf"
      in
      Table.add_row t
        [
          spec.Workloads.Suite.name;
          show_exact exact;
          Printf.sprintf "%.1f" (t_exact *. 1e3);
          (match howard with
          | Some l -> Printf.sprintf "%.4f" l
          | None -> "-");
          Printf.sprintf "%.1f" (t_howard *. 1e3);
          show_float bisect;
          Printf.sprintf "%.1f" (t_bisect *. 1e3);
        ])
    (Workloads.Suite.table1 @ Workloads.Suite.scaling);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Stats regression gate                                               *)
(* ------------------------------------------------------------------ *)

(* stats --diff BASE.json CURRENT.json: regression gate over two stats
   documents (see Audit.Diff); exit 3 on regression, 2 on bad input. *)
let stats_diff base_file cur_file =
  let read f =
    match In_channel.with_open_bin f In_channel.input_all with
    | s -> (
        match Obs.Json.of_string s with
        | Ok j -> j
        | Error e ->
            Format.eprintf "error: %s: %s@." f e;
            exit 2)
    | exception Sys_error e ->
        Format.eprintf "error: %s@." e;
        exit 2
  in
  let base = read base_file in
  let cur = read cur_file in
  match Audit.Diff.diff ~base ~cur with
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 2
  | Ok t ->
      print_string (Audit.Diff.render t);
      if not t.Audit.Diff.ok then exit 3

(* ------------------------------------------------------------------ *)

let modes =
  [
    ("table1", table1); ("table2", table2); ("table3", table3);
    ("ablation-k", ablation_k); ("ablation-cmax", ablation_cmax);
    ("ablation-mdr", ablation_mdr); ("ablation-seqmap2", ablation_seqmap2);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "stats"; "--diff"; base; cur ] -> stats_diff base cur
  | args -> (
      (* refuse the whole command line before running any mode *)
      match
        List.find_opt (fun a -> a <> "all" && not (List.mem_assoc a modes)) args
      with
      | Some a ->
          Format.eprintf
            "unknown mode %s@.usage: main.exe [%s | all] | stats --diff \
             BASE.json CUR.json@."
            a
            (String.concat " | " (List.map fst modes));
          exit 2
      | None ->
          let run =
            if args = [] || List.mem "all" args then List.map fst modes
            else args
          in
          List.iter (fun m -> (List.assoc m modes) ()) run)
