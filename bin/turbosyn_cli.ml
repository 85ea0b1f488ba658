(* Command-line driver for the TurboSYN library.

   Examples:
     turbosyn_cli list
     turbosyn_cli stats --workload bbara
     turbosyn_cli map --workload bbara --algo turbosyn -k 5
     turbosyn_cli map --input my.blif --algo turbomap --output mapped.blif
     turbosyn_cli map --workload bbara --stats s.json --audit a.json
     turbosyn_cli audit --check a.json
*)

open Cmdliner

let load ~input ~workload =
  match (input, workload) with
  | Some path, None -> (
      match Circuit.Blif.parse_file path with
      | Ok nl -> Ok nl
      | Error e -> Error (Printf.sprintf "cannot parse %s: %s" path e))
  | None, Some name -> (
      match Workloads.Suite.find name with
      | Some spec -> Ok (Workloads.Suite.build spec)
      | None -> Error (Printf.sprintf "unknown workload %s (try `list`)" name))
  | Some _, Some _ -> Error "give either --input or --workload, not both"
  | None, None -> Error "give --input FILE or --workload NAME"

let input_arg =
  Arg.(value & opt (some string) None & info [ "input"; "i" ] ~docv:"FILE"
         ~doc:"Read the circuit from a BLIF file.")

let workload_arg =
  Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~docv:"NAME"
         ~doc:"Use a named benchmark workload (see $(b,list)).")

let k_arg =
  Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"LUT input count (2-6).")

let algo_conv =
  Arg.enum
    (List.map
       (fun a -> (Turbosyn.Synth.algo_name a, a))
       [ `Turbosyn; `Turbomap; `Flowsyn_s ])

let algo_arg =
  Arg.(value & opt algo_conv `Turbosyn & info [ "algo"; "a" ] ~docv:"ALGO"
         ~doc:"Mapping algorithm: $(b,turbosyn), $(b,turbomap) or $(b,flowsyn-s).")

let output_arg =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE"
         ~doc:"Write the mapped circuit as BLIF.")

let verilog_arg =
  Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE"
         ~doc:"Write the mapped circuit as structural Verilog.")

let verify_arg =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Check the mapped circuit against the source by simulation.")

let no_pld_arg =
  Arg.(value & flag & info [ "no-pld" ] ~doc:"Disable positive loop detection.")

let no_area_arg =
  Arg.(value & flag & info [ "no-area" ] ~doc:"Skip area recovery.")

let multi_arg =
  Arg.(value & flag & info [ "multi" ]
         ~doc:"Enable two-wire multi-output decomposition (wider search,                more area).")

let exact_arg =
  Arg.(value & flag & info [ "exact" ]
         ~doc:"Search clock-period ratios over every denominator up to the                register count (default caps at 24).")

let stats_arg =
  Arg.(value & opt ~vopt:(Some "-") (some string) None
       & info [ "stats" ] ~docv:"FILE"
           ~doc:"Collect algorithm counters and phase timings and write the \
                 JSON report (schema: doc/OBSERVABILITY.md) to $(docv); with \
                 no $(docv), print it to stdout and move the human-readable \
                 summary to stderr.")

let audit_arg =
  Arg.(value & opt (some string) None
       & info [ "audit" ] ~docv:"FILE"
           ~doc:"Write the turbosyn-audit/2 evidence document (critical-loop \
                 certificate, retiming witness, label provenance; see \
                 doc/AUDIT.md) to $(docv).")

let log_level_arg =
  Arg.(value & opt (some string) None
       & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Structured-log threshold: $(b,debug), $(b,info), $(b,warn) \
                 or $(b,error) (default info).  Lines below the threshold \
                 are dropped.")

let log_file_arg =
  Arg.(value & opt (some string) None
       & info [ "log-file" ] ~docv:"FILE"
           ~doc:"Append structured JSON log lines (schema turbosyn-log/1, \
                 doc/OBSERVABILITY.md) to $(docv) instead of stderr.")

let exit_err msg =
  Format.eprintf "error: %s@." msg;
  exit 1

(* Route the structured logger per the common --log-level/--log-file
   flags.  [outputs] lists every (flag, destination) this invocation
   will write machine-readable documents to; sending log lines into the
   same file would corrupt both, so the collision is refused up front. *)
let setup_logging ~log_level ~log_file ~outputs =
  (match log_level with
  | None -> ()
  | Some s -> (
      match Obs.Log.level_of_string s with
      | Some lvl -> Obs.Log.set_level lvl
      | None ->
          exit_err
            (Printf.sprintf
               "unknown --log-level %S (debug, info, warn, error)" s)));
  match log_file with
  | None -> Obs.Log.to_stderr ()
  | Some path -> (
      if path = "-" then
        exit_err "--log-file does not accept -: stdout is reserved for \
                  machine-readable output (logs go to stderr by default)";
      List.iter
        (fun (flag, dest) ->
          match dest with
          | Some d when d <> "-" && d = path ->
              exit_err
                (Printf.sprintf
                   "--log-file and %s both name %s; interleaving JSON log \
                    lines with a report would corrupt both — pick distinct \
                    files" flag d)
          | _ -> ())
        outputs;
      try Obs.Log.to_file path
      with Sys_error e -> exit_err e)

let list_cmd =
  let run () =
    Format.printf "%-10s %-10s %6s %4s %4s %4s@." "name" "style" "gates" "ffs"
      "pis" "pos";
    List.iter
      (fun s ->
        let style =
          match s.Workloads.Suite.style with
          | Workloads.Suite.Fsm -> "fsm"
          | Workloads.Suite.Mixer d -> Printf.sprintf "mixer %.2f" d
          | Workloads.Suite.Lfsr -> "lfsr"
          | Workloads.Suite.Counter -> "counter"
          | Workloads.Suite.Datapath -> "datapath"
        in
        Format.printf "%-10s %-10s %6d %4d %4d %4d@." s.Workloads.Suite.name
          style s.Workloads.Suite.gates s.Workloads.Suite.ffs
          s.Workloads.Suite.pis s.Workloads.Suite.pos)
      Workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the named benchmark workloads.")
    Term.(const run $ const ())

let stats_cmd =
  let run input workload =
    match load ~input ~workload with
    | Error e -> exit_err e
    | Ok nl ->
        Format.printf "%s: %a@." (Circuit.Netlist.name nl)
          Circuit.Netlist.pp_stats
          (Circuit.Netlist.stats nl);
        (match Circuit.Netlist.mdr_ratio nl with
        | Graphs.Cycle_ratio.Ratio r ->
            Format.printf "MDR ratio: %a (clock-period bound %d)@." Prelude.Rat.pp
              r
              (max 1 (Prelude.Rat.ceil r))
        | Graphs.Cycle_ratio.No_cycle ->
            Format.printf "MDR ratio: none (acyclic: fully pipelinable)@."
        | Graphs.Cycle_ratio.Infinite ->
            Format.printf "MDR ratio: infinite (combinational loop!)@.");
        Format.printf "clock period without retiming: %d@."
          (Retime.Retiming.clock_period nl)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics and the MDR bound.")
    Term.(const run $ input_arg $ workload_arg)

let map_cmd =
  let run input workload algo k output verilog verify no_pld no_area multi exact
      stats audit log_level log_file =
    setup_logging ~log_level ~log_file
      ~outputs:
        [
          ("--stats", stats);
          ("--audit", audit);
          ("--output", output);
          ("--verilog", verilog);
        ];
    match load ~input ~workload with
    | Error e -> exit_err e
    | Ok nl -> (
        let options =
          {
            (Turbosyn.Synth.default_options ~k ()) with
            Turbosyn.Synth.pld = not no_pld;
            area_recovery = not no_area;
            multi_output = multi;
            phi_max_den = (if exact then None else Some 24);
          }
        in
        if stats <> None then begin
          Obs.set_enabled true;
          Obs.reset ()
        end;
        (* keep stdout parseable when the JSON report goes there *)
        let out =
          if stats = Some "-" then Format.err_formatter
          else Format.std_formatter
        in
        let algo_name = Turbosyn.Synth.algo_name algo in
        Obs.Log.debug "map.start"
          [
            ("circuit", Obs.Json.Str (Circuit.Netlist.name nl));
            ("algo", Obs.Json.Str algo_name);
            ("k", Obs.Json.Int k);
          ];
        match Turbosyn.Synth.run ~options algo nl with
        | exception Invalid_argument msg -> exit_err msg
        | r ->
            Obs.Log.debug "map.done"
              [
                ("circuit", Obs.Json.Str (Circuit.Netlist.name nl));
                ("algo", Obs.Json.Str algo_name);
                ( "phi",
                  Obs.Json.Str (Prelude.Rat.to_string r.Turbosyn.Synth.phi) );
                ("clock_period", Obs.Json.Int r.Turbosyn.Synth.clock_period);
                ("luts", Obs.Json.Int r.Turbosyn.Synth.luts);
                ("seconds", Obs.Json.Float r.Turbosyn.Synth.cpu_seconds);
              ];
            Format.fprintf out "algorithm: %s@."
              (match r.Turbosyn.Synth.algo with
              | `Turbosyn -> "TurboSYN"
              | `Turbomap -> "TurboMap"
              | `Flowsyn_s -> "FlowSYN-s");
            Format.fprintf out "phi (min MDR ratio): %s@."
              (Prelude.Rat.to_string r.Turbosyn.Synth.phi);
            Format.fprintf out "clock period: %d   pipeline latency: %d@."
              r.Turbosyn.Synth.clock_period r.Turbosyn.Synth.latency;
            Format.fprintf out "LUTs: %d (before area recovery: %d)@."
              r.Turbosyn.Synth.luts r.Turbosyn.Synth.luts_before_area;
            Format.fprintf out "CPU: %.2fs  probes: %d@."
              r.Turbosyn.Synth.cpu_seconds r.Turbosyn.Synth.probes;
            if verify then begin
              let rng = Prelude.Rng.create 7 in
              let ok = Sim.Equiv.mapped_equal rng nl r.Turbosyn.Synth.mapped in
              Format.fprintf out "verification: %s@."
                (if ok then "PASS" else "FAIL");
              if not ok then exit 2
            end;
            let write path f =
              match f () with
              | () -> ()
              | exception Sys_error msg -> exit_err msg
              | exception _ -> exit_err (Printf.sprintf "cannot write %s" path)
            in
            (match output with
            | Some path ->
                write path (fun () ->
                    Circuit.Blif.write_file r.Turbosyn.Synth.mapped path);
                Format.fprintf out "wrote %s@." path
            | None -> ());
            (match verilog with
            | Some path ->
                write path (fun () ->
                    Circuit.Verilog.write_file r.Turbosyn.Synth.mapped path);
                Format.fprintf out "wrote %s@." path
            | None -> ());
            (match audit with
            | Some path -> (
                match Audit.build ~source:nl ~options r with
                | Error e -> exit_err (Printf.sprintf "audit: %s" e)
                | Ok doc ->
                    write path (fun () ->
                        let oc = open_out path in
                        Fun.protect
                          ~finally:(fun () -> close_out oc)
                          (fun () ->
                            output_string oc (Obs.Json.to_pretty_string doc);
                            output_char oc '\n'));
                    Format.fprintf out "wrote %s@." path)
            | None -> ());
            match stats with
            | Some dest ->
                let extra =
                  [
                    ( "run",
                      Obs.Json.Obj
                        [
                          ("circuit", Obs.Json.Str (Circuit.Netlist.name nl));
                          ( "algo",
                            Obs.Json.Str
                              (Turbosyn.Synth.algo_name r.Turbosyn.Synth.algo)
                          );
                          ("k", Obs.Json.Int k);
                          ( "phi",
                            Obs.Json.Str
                              (Prelude.Rat.to_string r.Turbosyn.Synth.phi) );
                          ( "clock_period",
                            Obs.Json.Int r.Turbosyn.Synth.clock_period );
                          ("latency", Obs.Json.Int r.Turbosyn.Synth.latency);
                          ("luts", Obs.Json.Int r.Turbosyn.Synth.luts);
                          ("probes", Obs.Json.Int r.Turbosyn.Synth.probes);
                          ( "cpu_seconds",
                            Obs.Json.Float r.Turbosyn.Synth.cpu_seconds );
                        ] );
                  ]
                in
                write dest (fun () -> Obs.Report.write_stats ~extra dest);
                if dest <> "-" then Format.fprintf out "wrote %s@." dest
            | None -> ())
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:"Map a circuit to K-LUTs minimizing the clock period under \
             retiming and pipelining.")
    Term.(
      const run $ input_arg $ workload_arg $ algo_arg $ k_arg $ output_arg
      $ verilog_arg $ verify_arg $ no_pld_arg $ no_area_arg $ multi_arg
      $ exact_arg $ stats_arg $ audit_arg $ log_level_arg
      $ log_file_arg)

let audit_cmd =
  let run path seed =
    match
      try Ok (In_channel.with_open_bin path In_channel.input_all)
      with Sys_error e -> Error e
    with
    | Error e -> exit_err e
    | Ok text -> (
        match Obs.Json.of_string text with
        | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
        | Ok doc -> (
            match Audit.verify ~seed doc with
            | Error e ->
                exit_err
                  (Printf.sprintf "%s: malformed audit document: %s" path e)
            | Ok v ->
                print_string (Audit.render_verdict v);
                if not v.Audit.v_ok then exit 2))
  in
  let check_arg =
    Arg.(required & opt (some string) None & info [ "check" ] ~docv:"FILE"
           ~doc:"The audit document to verify.")
  in
  let seed_arg =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the simulation-based equivalence check.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Independently verify a turbosyn-audit/2 evidence document \
             (critical-loop certificate, retiming witness and label \
             provenance; doc/AUDIT.md), as written by $(b,map --audit).")
    Term.(const run $ check_arg $ seed_arg)

let simulate_cmd =
  let run input workload cycles seed =
    match load ~input ~workload with
    | Error e -> exit_err e
    | Ok nl ->
        let rng = Prelude.Rng.create seed in
        let width = List.length (Circuit.Netlist.pis nl) in
        let sim = Sim.Simulator.create nl in
        let bit b = if b then '1' else '0' in
        Format.printf "cycle  %s  ->  %s@."
          (String.concat " " (List.map (Circuit.Netlist.node_name nl) (Circuit.Netlist.pis nl)))
          (String.concat " " (List.map (Circuit.Netlist.node_name nl) (Circuit.Netlist.pos nl)));
        for t = 0 to cycles - 1 do
          let inputs = Array.init width (fun _ -> Prelude.Rng.bool rng) in
          let outs = Sim.Simulator.step sim inputs in
          Format.printf "%5d  %s  ->  %s@." t
            (String.init width (fun i -> bit inputs.(i)))
            (String.init (Array.length outs) (fun i -> bit outs.(i)))
        done
  in
  let cycles_arg =
    Arg.(value & opt int 16 & info [ "cycles"; "n" ] ~docv:"N"
           ~doc:"Number of cycles to simulate.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Input stream seed.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a circuit on a random input stream.")
    Term.(const run $ input_arg $ workload_arg $ cycles_arg $ seed_arg)

let equiv_cmd =
  let run file_a file_b mapped =
    match (Circuit.Blif.parse_file file_a, Circuit.Blif.parse_file file_b) with
    | Error e, _ | _, Error e -> exit_err e
    | Ok a, Ok b ->
        let rng = Prelude.Rng.create 7 in
        let ok =
          if mapped then Sim.Equiv.mapped_equal rng a b
          else Sim.Equiv.io_equal rng a b
        in
        Format.printf "%s@." (if ok then "EQUIVALENT" else "DIFFERENT");
        if not ok then exit 2
  in
  let a_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.blif") in
  let b_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.blif") in
  let mapped_arg =
    Arg.(value & flag & info [ "mapped" ]
           ~doc:"Use the consistent-initial-state notion (for circuits mapped                  with retiming); node names of B must match signals of A.")
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Check two BLIF circuits for sequential equivalence by simulation.")
    Term.(const run $ a_arg $ b_arg $ mapped_arg)

let serve_cmd =
  let run port slow_seconds workers queue_depth cache_entries log_level
      log_file =
    setup_logging ~log_level ~log_file ~outputs:[];
    (* metrics must be live for /metrics to have content; never reset
       between requests so scrape counters stay monotone *)
    Obs.set_enabled true;
    Obs.reset ();
    if queue_depth < 0 then exit_err "--queue-depth must be >= 0";
    if cache_entries < 0 then exit_err "--cache-entries must be >= 0";
    match
      Serve.Server.create ~port ~slow_seconds ?workers ~queue_depth
        ~cache_entries ()
    with
    | exception Unix.Unix_error (e, _, _) ->
        exit_err
          (Printf.sprintf "cannot listen on port %d: %s" port
             (Unix.error_message e))
    | server ->
        Format.eprintf
          "turbosyn serve: listening on http://127.0.0.1:%d (%d worker \
           domain(s), queue depth %d, cache %d entries; routes: /map, \
           /metrics, /healthz, /debug/requests, /debug/trace/<id>)@."
          (Serve.Server.port server)
          (Serve.Server.workers server)
          queue_depth cache_entries;
        Obs.Log.info "serve.start"
          [
            ("port", Obs.Json.Int (Serve.Server.port server));
            ("workers", Obs.Json.Int (Serve.Server.workers server));
            ("queue_depth", Obs.Json.Int queue_depth);
            ("cache_entries", Obs.Json.Int cache_entries);
            ("slow_seconds", Obs.Json.Float slow_seconds);
          ];
        Serve.Server.run server
  in
  let port_arg =
    Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let slow_arg =
    Arg.(value & opt float 1.0 & info [ "slow-seconds" ] ~docv:"SECONDS"
           ~doc:"Requests slower than $(docv) additionally log a \
                 $(b,serve.slow) warning with per-phase timings.")
  in
  let workers_arg =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains draining the /map queue (default: \
                 host-derived, between 1 and 4; clamped to at least 1).")
  in
  let queue_depth_arg =
    Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
           ~doc:"Admission bound: /map jobs queued beyond the in-flight \
                 ones before the server sheds with 429 + Retry-After \
                 (0 sheds every /map request).")
  in
  let cache_entries_arg =
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"LRU capacity of the result cache, keyed by the \
                 validated request (circuit, algo, k); 0 disables \
                 caching, and responses then carry $(b,X-Cache: bypass).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the mapping pipeline over HTTP: POST /map runs a request \
             ({\"circuit\": ..., \"k\": ..., \"algo\": ...}) on a pool of \
             worker domains behind a bounded queue with an LRU result \
             cache keyed by the validated request (circuit, algo, k) \
             (X-Cache: hit|miss marker, 429 + Retry-After load \
             shedding), GET /metrics answers a Prometheus \
             text-exposition scrape, GET /healthz a liveness probe with \
             pool and cache gauges; GET /debug/requests and \
             /debug/trace/<id> introspect the recent-request ring.  Every \
             request carries a correlation id (X-Request-Id or traceparent, \
             echoed back) and emits a structured access-log line.  \
             Runs until interrupted.")
    Term.(
      const run $ port_arg $ slow_arg $ workers_arg $ queue_depth_arg
      $ cache_entries_arg $ log_level_arg $ log_file_arg)

let flame_cmd =
  let run trace_file input workload algo k output log_level log_file =
    setup_logging ~log_level ~log_file ~outputs:[ ("--output", Some output) ];
    let write_folded text =
      match Obs.Flame.write output text with
      | () ->
          if output <> "-" then Format.eprintf "wrote %s@." output
      | exception Sys_error e -> exit_err e
    in
    match trace_file with
    | Some path ->
        (* fold an existing Chrome-trace document, such as the
           benchmark's trace files *)
        let text =
          match path with
          | "-" -> In_channel.input_all In_channel.stdin
          | _ -> (
              try In_channel.with_open_bin path In_channel.input_all
              with Sys_error e -> exit_err e)
        in
        (match Obs.Json.of_string text with
        | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
        | Ok doc -> (
            match Obs.Flame.slices_of_timeline_json doc with
            | Error e -> exit_err (Printf.sprintf "%s: %s" path e)
            | Ok slices -> write_folded (Obs.Flame.of_slices slices)))
    | None -> (
        (* whole-run mode: map the circuit with the timeline live and
           fold the recorded span activations *)
        match load ~input ~workload with
        | Error e -> exit_err e
        | Ok nl -> (
            let options = Turbosyn.Synth.default_options ~k () in
            Obs.set_enabled true;
            Obs.reset ();
            (* keep every slice: a bounded ring drops the oldest, and a
               dropped child's time then folds into its parent's self
               time *)
            Obs.Timeline.set_capacity max_int;
            match Turbosyn.Synth.run ~options algo nl with
            | exception Invalid_argument msg -> exit_err msg
            | _ ->
                write_folded
                  Obs.Flame.(to_string (fold_timeline ()))))
  in
  let trace_file_arg =
    Arg.(value & opt (some string) None & info [ "from-timeline"; "t" ]
           ~docv:"FILE"
           ~doc:"Fold the $(b,X) events of an existing Chrome-trace \
                 document (such as perfbench's \
                 .perfbench/trace-<workload>-<seed>.json) instead of \
                 running a mapping; - reads stdin.")
  in
  let out_arg =
    Arg.(value & opt string "-" & info [ "output"; "o" ] ~docv:"FILE"
           ~doc:"Write the folded stacks to $(docv) (default stdout).")
  in
  Cmd.v
    (Cmd.info "flame"
       ~doc:"Fold the span timeline into flamegraph.pl-compatible folded \
             stacks (one $(i,stack weight) line per distinct stack, weighted \
             by self time in microseconds).  Either run a mapping \
             ($(b,--workload)/$(b,--input)) and fold the whole run, or fold \
             an existing Chrome-trace document ($(b,--from-timeline)).  \
             Render with: flamegraph.pl out.folded > flame.svg.")
    Term.(
      const run $ trace_file_arg $ input_arg $ workload_arg $ algo_arg $ k_arg
      $ out_arg $ log_level_arg $ log_file_arg)

let () =
  let doc = "TurboSYN: FPGA synthesis with retiming and pipelining (DAC'97)" in
  let main =
    Cmd.group (Cmd.info "turbosyn_cli" ~doc)
      [
        list_cmd;
        stats_cmd;
        map_cmd;
        audit_cmd;
        simulate_cmd;
        equiv_cmd;
        serve_cmd;
        flame_cmd;
      ]
  in
  exit (Cmd.eval main)
