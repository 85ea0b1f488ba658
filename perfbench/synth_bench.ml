(* The synthesis workloads: deep-suite and map-scale.

   A pass runs every (circuit, algorithm) job of the workload as a user
   of the library would: BLIF text in, [Blif.parse_string], [Synth.run]
   with default options at K = 5, [Blif.to_string] of the mapped netlist
   out.  Each job runs in a fresh process, as one CLI invocation would,
   so no job inherits another's heap; the child times its own flow and
   reports it as one JSON line.  Untraced jobs run with Obs off.  The
   traced run also replays [Synth.run] stage by stage, in another fresh
   process per job, through the same public functions it calls, timing
   each call from outside. *)

open Prelude
open Common
module Synth = Turbosyn.Synth
module Netlist = Circuit.Netlist
module Blif = Circuit.Blif
module LE = Seqmap.Label_engine

type job = {
  circuit : string;
  algo : Synth.algo;
  file : string;  (** the circuit as BLIF text *)
  seeded : bool;  (** generated from the workload seed *)
}

let options = Synth.default_options ~k:5 ()
let id job = job.circuit ^ "." ^ Synth.algo_name job.algo
let all_algos = [ `Turbosyn; `Turbomap; `Flowsyn_s ]

(* The circuits of a workload, named as in its run rows, with whether
   they are drawn from the seed. *)
let circuits workload ~seed ~quick =
  let suite name =
    ((name, false), fun () -> Workloads.Suite.build (Option.get (Workloads.Suite.find name)))
  in
  let generated name gen =
    ( (name, true),
      fun () ->
        let nl = gen (Rng.create seed) in
        Netlist.set_name nl name;
        nl )
  in
  match workload with
  | "deep-suite" ->
      (* the seeded FSM runs under the baselines only: TurboSYN's time on
         it ranges over an order of magnitude from seed to seed *)
      let fsm =
        generated "fsm" (fun rng ->
            Workloads.Generate.fsm rng ~pis:7 ~pos:7 ~gates:104 ~ffs:4)
      in
      let all =
        [
          (suite "bbara", all_algos);
          (suite "bbsse", all_algos);
          (suite "cse", all_algos);
          (suite "s298", all_algos);
          (suite "s526", [ `Turbomap; `Flowsyn_s ]);
          (fsm, [ `Turbomap; `Flowsyn_s ]);
        ]
      in
      if quick then [ List.hd all; List.nth all 5 ] else all
  | "map-scale" ->
      (* TurboMap's time on a generated mixer moves by a fifth or more
         from seed to seed, so the TurboMap mixer is fixed (seeded by its
         name, like the suite circuits) and the seeded one runs under
         FlowSYN-s only *)
      let mixer rng =
        Workloads.Generate.mixer rng ~pis:16 ~pos:8 ~gates:400 ~ff_density:0.25
      in
      let fixed =
        ( ("mix400", false),
          fun () ->
            let nl = mixer (Rng.of_string "mix400") in
            Netlist.set_name nl "mix400";
            nl )
      in
      if quick then [ (suite "s298", [ `Turbomap; `Flowsyn_s ]) ]
      else
        [
          (fixed, [ `Turbomap; `Flowsyn_s ]);
          (suite "big1k", [ `Flowsyn_s ]);
          (generated "mixseed" mixer, [ `Flowsyn_s ]);
        ]
  | w -> invalid_arg ("unknown synth workload " ^ w)

(* Set-up: build every circuit and render it to BLIF. *)
let setup specs =
  List.map
    (fun (((name, seeded), build), algos) ->
      (name, seeded, Blif.to_string (build ()), algos))
    specs

let parse ~name blif =
  match Blif.parse_string ~name blif with
  | Ok nl -> nl
  | Error e -> failwith (Printf.sprintf "%s: BLIF parse error: %s" name e)

(* ------------------------------------------------------------------ *)
(* Child side: one job per process                                      *)
(* ------------------------------------------------------------------ *)

let span_json s =
  J.Obj
    [
      ("name", J.Str s.name);
      ("parent", J.Str s.parent);
      ("t0", J.Float s.t0);
      ("t1", J.Float s.t1);
      ("words", J.Float s.words);
    ]

let outcome_json ~phi ~luts ~period ~latency =
  [
    ("phi", J.Str (Rat.to_string phi));
    ("luts", J.Int luts);
    ("clock_period", J.Int period);
    ("latency", J.Int latency);
  ]

(* [traced] times the two audit calls as stages of their run. *)
let audit ~traced ~verify_seed ~run_id ~source r =
  let stage name f = if traced then span ~parent:run_id name f else f () in
  let under_run f = if traced then span ~parent:"" run_id f else f () in
  under_run @@ fun () ->
  match stage "audit_build" (fun () -> Audit.build ~source ~options r) with
  | Error e -> "Audit.build: " ^ e
  | Ok doc -> (
      match stage "audit_verify" (fun () -> Audit.verify ~seed:verify_seed doc) with
      | Error e -> "Audit.verify: " ^ e
      | Ok v when not v.Audit.v_ok -> "audit rejected:\n" ^ Audit.render_verdict v
      | Ok _ -> "ok")

(* Parse, map and write one circuit, timed; then, when asked, audit the
   result outside the timed region. *)
let child_run ~name ~algo ~file ~audit_seed ~traced =
  Obs.set_enabled false;
  let blif = read_file file in
  let t0 = Timer.wall () and c0 = Timer.cpu () in
  let nl = parse ~name blif in
  let r = Synth.run ~options algo nl in
  ignore (Sys.opaque_identity (Blif.to_string r.Synth.mapped));
  let seconds = Timer.wall () -. t0 and cpu = Timer.cpu () -. c0 in
  let rss = peak_rss_mb "self" in
  let heap =
    float (Gc.quick_stat ()).Gc.top_heap_words
    *. float (Sys.word_size / 8)
    /. 1048576.
  in
  let verdict =
    match audit_seed with
    | None -> "not audited"
    | Some verify_seed ->
        audit ~traced ~verify_seed
          ~run_id:(name ^ "." ^ Synth.algo_name algo)
          ~source:nl r
  in
  J.Obj
    (outcome_json ~phi:r.Synth.phi ~luts:r.Synth.luts
       ~period:r.Synth.clock_period ~latency:r.Synth.latency
    @ [
        ("seconds", J.Float seconds);
        ("cpu", J.Float cpu);
        ("rss_mb", J.Float rss);
        ("heap_mb", J.Float heap);
        ("audit", J.Str verdict);
        ("spans", J.List (List.rev_map span_json !spans));
      ])

(* Mirrors [Synth.run] with the default options (one domain, no probe
   speculation): the same calls in the same order, sharing the resyn
   cache and cut memo across search and final labels as
   [Turbomap.map_full] does. *)
let replay ~name ~algo blif =
  let parent = name ^ "." ^ Synth.algo_name algo in
  let stage name f = span ~parent name f in
  let o = options in
  assert (o.Synth.jobs = 1);
  span ~parent:"" parent (fun () ->
      let nl =
        stage "parse" (fun () ->
            let nl = parse ~name blif in
            Netlist.validate_exn ~k:o.Synth.k nl;
            nl)
      in
      let mapped, phi =
        match algo with
        | (`Turbosyn | `Turbomap) as algo ->
            let resynthesize = algo = `Turbosyn in
            let opts = Synth.engine_options o ~resynthesize in
            let cache, cutmemo, (phi, _probes, _stats) =
              stage "search" (fun () ->
                  let cache = LE.new_cache () in
                  let cutmemo = LE.new_cut_memo nl in
                  ( cache,
                    cutmemo,
                    Seqmap.Turbomap.minimum_ratio ~cache ~cutmemo
                      ?phi_max_den:o.Synth.phi_max_den ~jobs:o.Synth.probe_jobs
                      opts nl ))
            in
            let impls =
              stage "final_labels" (fun () ->
                  match fst (LE.run ~cache ~cutmemo opts nl ~phi) with
                  | LE.Feasible { impls; _ } -> impls
                  | LE.Infeasible -> failwith (parent ^ ": final labels infeasible"))
            in
            let mapped =
              stage "mapgen" (fun () ->
                  let m = Seqmap.Mapgen.generate nl ~impls in
                  Netlist.validate_exn ~k:o.Synth.k m;
                  m)
            in
            stage "mdr" (fun () ->
                ignore (Sys.opaque_identity (Netlist.mdr_ratio mapped));
                ignore
                  (Sys.opaque_identity (Retime.Pipeline.period_lower_bound mapped)));
            let mapped =
              if resynthesize && o.Synth.area_recovery then
                stage "relax" (fun () -> fst (Turbosyn.Relax.relax nl ~impls ~phi))
              else mapped
            in
            (mapped, phi)
        | `Flowsyn_s ->
            let mapped, report =
              stage "flowsyn" (fun () ->
                  Flowmap.Flowsyn.map_sequential ~resynthesize:true
                    ~cmax:o.Synth.cmax ~exhaustive:o.Synth.exhaustive
                    ~jobs:o.Synth.jobs nl ~k:o.Synth.k)
            in
            let phi =
              match report.Flowmap.Flowsyn.mdr with
              | Graphs.Cycle_ratio.Ratio r -> r
              | Graphs.Cycle_ratio.No_cycle -> Rat.zero
              | Graphs.Cycle_ratio.Infinite -> Rat.of_int (-1)
            in
            (mapped, phi)
      in
      let mapped =
        if o.Synth.area_recovery then
          stage "area" (fun () -> Turbosyn.Area.reduce mapped ~k:o.Synth.k)
        else mapped
      in
      let period, latency =
        stage "realize" (fun () ->
            match Seqmap.Turbomap.realize_full mapped with
            | Some (_, p, l, _) -> (p, l)
            | None -> (-1, 0))
      in
      ignore (Sys.opaque_identity (stage "write" (fun () -> Blif.to_string mapped)));
      (phi, List.length (Netlist.gates mapped), period, latency))

let child_replay ~name ~algo ~file =
  let blif = read_file file in
  Obs.set_enabled true;
  Obs.reset ();
  let phi, luts, period, latency = replay ~name ~algo blif in
  Obs.set_enabled false;
  J.Obj
    (outcome_json ~phi ~luts ~period ~latency
    @ [
        ( "counters",
          J.Obj
            (List.map
               (fun c -> (c, J.Int (Option.value ~default:0 (Obs.Counter.find c))))
               counter_inputs) );
        ("spans", J.List (List.rev_map span_json !spans));
      ])

(* The child's entry point: prints its one JSON line. *)
let child ~mode ~circuit ~algo ~file ~audit_seed ~traced =
  let algo = algo_of_name algo in
  let doc =
    match mode with
    | "run" -> child_run ~name:circuit ~algo ~file ~audit_seed ~traced
    | "replay" -> child_replay ~name:circuit ~algo ~file
    | m -> invalid_arg ("unknown job mode " ^ m)
  in
  print_endline (J.to_string doc)

(* ------------------------------------------------------------------ *)
(* Parent side                                                          *)
(* ------------------------------------------------------------------ *)

(* Run one job in a fresh process; [None] when it failed (recorded). *)
let spawn job mode extra =
  let args =
    Array.of_list
      ([
         Sys.executable_name; "--job"; mode; "--circuit"; job.circuit; "--algo";
         Synth.algo_name job.algo; "--blif"; job.file;
       ]
      @ extra)
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, J.of_string last) with
  | Unix.WEXITED 0, Ok doc -> Some doc
  | _ ->
      fail ~key:(id job) "%s job did not complete" mode;
      None

let str doc key = match J.member key doc with Some (J.Str s) -> s | _ -> ""

let outcome doc =
  (str doc "phi", num doc "luts", num doc "clock_period", num doc "latency")

let describe doc =
  let phi, luts, period, latency = outcome doc in
  Printf.sprintf "phi=%s luts=%g period=%g latency=%g" phi luts period latency

let spans_of doc =
  match J.member "spans" doc with
  | Some (J.List l) ->
      List.map
        (fun s ->
          {
            name = str s "name";
            parent = str s "parent";
            lane = 0;
            t0 = num s "t0";
            t1 = num s "t1";
            words = num s "words";
          })
        l
  | _ -> []

let phi_of doc = qor_phi (str doc "phi")

(* One pass: every job once, in order, with [between] run after each. *)
let run_pass ?(between = ignore) jobs extra =
  List.filter_map
    (fun job ->
      let d = spawn job "run" extra in
      between ();
      Option.map (fun d -> (job, d)) d)
    jobs

(* QoR aggregates cover the suite circuits only, so that they compare
   commits on identical inputs whatever the seed; the seeded circuits'
   φ and LUTs are in the run record. *)
let qor results =
  let results = List.filter (fun (job, _) -> not job.seeded) results in
  let gain baseline =
    List.filter_map
      (fun (job, d) ->
        if job.algo <> `Turbosyn then None
        else
          List.find_opt
            (fun (b, _) -> b.circuit = job.circuit && b.algo = baseline)
            results
          |> Option.map (fun (_, b) -> phi_of b /. phi_of d))
      results
    |> function
    | [] -> 0.
    | pairs -> geomean pairs
  in
  ( geomean (List.map (fun (_, d) -> phi_of d) results),
    List.fold_left (fun acc (_, d) -> acc +. num d "luts") 0. results,
    [
      ("period_gain_vs_turbomap", gain `Turbomap);
      ("period_gain_vs_flowsyn", gain `Flowsyn_s);
    ] )

let shuffled ~seed l =
  let a = Array.of_list l in
  Rng.shuffle (Rng.create ((seed * 7919) + 17)) a;
  Array.to_list a

let stage_totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent <> "" then begin
        let t, w = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl s.name) in
        Hashtbl.replace tbl s.name (t +. (s.t1 -. s.t0), w +. s.words)
      end)
    spans;
  tbl

(* The traced run's layer metrics: a replay per job, the audit spans of
   the first pass, and the counters the replays read. *)
let traced_metrics jobs first ~workload ~seed ~work =
  let replays =
    List.filter_map
      (fun job -> Option.map (fun d -> (job, d)) (spawn job "replay" []))
      jobs
  in
  List.iter
    (fun (job, d) ->
      match List.assoc_opt job first with
      | Some r when outcome r <> outcome d ->
          fail ~key:(id job) "stage replay %s, Synth.run %s" (describe d) (describe r)
      | _ -> ())
    replays;
  let replay_spans = List.concat_map (fun (_, d) -> spans_of d) replays in
  let run_total =
    List.fold_left
      (fun acc s -> if s.parent = "" then acc +. (s.t1 -. s.t0) else acc)
      0. replay_spans
  in
  let covered =
    Hashtbl.fold (fun _ (t, _) acc -> acc +. t) (stage_totals replay_spans) 0.
  in
  let untraced = List.fold_left (fun a (_, d) -> a +. num d "seconds") 0. first in
  spans := List.concat_map (fun (_, d) -> spans_of d) first @ replay_spans;
  let totals = stage_totals !spans in
  let stage s = Option.value ~default:(0., 0.) (Hashtbl.find_opt totals s) in
  let counter name =
    List.fold_left
      (fun acc (_, d) ->
        acc +. Option.fold ~none:0. ~some:(fun c -> num c name) (J.member "counters" d))
      0. replays
  in
  let peak key = List.fold_left (fun a (_, d) -> Float.max a (num d key)) 0. first in
  let trace_file =
    Filename.concat work (Printf.sprintf "trace-%s-%d.json" workload seed)
  in
  write_trace trace_file;
  Printf.printf "perfbench: stage trace written to %s\n" trace_file;
  List.concat_map
    (fun s ->
      let t, w = stage s in
      [ ("stage." ^ s ^ "_s", t); ("stage." ^ s ^ "_mwords", w /. 1e6) ])
    stages
  @ counter_metrics counter
  @ [
      ( "stage.label_only_s",
        fst (stage "search") +. fst (stage "final_labels") +. fst (stage "mapgen") );
      ("stage.unattributed_frac", 1. -. ratio covered run_total);
      ("obs.overhead_frac", ratio run_total untraced -. 1.);
      ("heap.top_mb", peak "heap_mb");
    ]

let run workload ~seed ~seconds ~trace ~quick ~work =
  let specs = circuits workload ~seed ~quick in
  (* set-up takes milliseconds: it is repeated three times after every
     job of the first pass, so that its median samples the whole pass
     rather than the moment the process started *)
  let setup_times = ref [] in
  let timed_setup () =
    let built, t = Timer.time (fun () -> setup specs) in
    setup_times := t :: !setup_times;
    built
  in
  let jobs =
    shuffled ~seed
      (List.concat_map
         (fun (circuit, seeded, blif, algos) ->
           let file = Filename.concat work (circuit ^ ".blif") in
           Out_channel.with_open_bin file (fun oc -> output_string oc blif);
           List.map (fun algo -> { circuit; algo; file; seeded }) algos)
         (timed_setup ()))
  in
  let audit_args =
    [ "--audit-seed"; string_of_int seed ] @ if trace then [ "--trace"; "1" ] else []
  in
  (* passes until the next one would overrun [seconds]; always one, only
     the first is audited, and a traced run makes exactly one *)
  let t_start = Timer.wall () in
  let rec loop acc =
    let t0 = Timer.wall () in
    let p =
      if acc = [] then
        run_pass jobs audit_args ~between:(fun () ->
            for _ = 1 to 3 do ignore (timed_setup ()) done)
      else run_pass jobs []
    in
    let took = Timer.wall () -. t0 in
    if (not trace) && Timer.wall () -. t_start +. took <= seconds then loop (p :: acc)
    else List.rev (p :: acc)
  in
  let passes = loop [] in
  let first = List.hd passes in
  List.iter
    (fun (job, d) ->
      let verdict = str d "audit" in
      if verdict <> "ok" then fail ~key:(id job) "%s" verdict)
    first;
  List.iter
    (fun p ->
      List.iter
        (fun (job, d) ->
          match List.assoc_opt job first with
          | Some r when outcome r <> outcome d ->
              fail ~key:(id job) "pass differs: %s vs %s" (describe r) (describe d)
          | _ -> ())
        p)
    (List.tl passes);
  let phi_geo, luts_total, gains = qor first in
  (* each job's median over the passes, which sheds a pass that a burst
     of load from outside the benchmark slowed *)
  let job_median key job =
    match List.filter_map (fun p -> Option.map (fun d -> num d key) (List.assoc_opt job p)) passes with
    | [] -> 0. (* the job failed, which the run already reports *)
    | l -> median l
  in
  let total key = List.fold_left (fun a job -> a +. job_median key job) 0. jobs in
  let rows = List.map (fun job -> (Printf.sprintf "run.%s_s" (id job), job_median "seconds" job)) jobs in
  let traced = if trace then traced_metrics jobs first ~workload ~seed ~work else [] in
  let checked = List.length jobs in
  let failed = failed_keys () in
  {
    attempted = checked;
    failed;
    metrics =
      [
        ("setup_s", median !setup_times);
        ("flow_s", total "seconds");
        ("flow_cpu_s", total "cpu");
        ( "peak_rss_mb",
          List.fold_left (fun a (_, d) -> Float.max a (num d "rss_mb")) 0. first );
        ("phi_geomean", phi_geo);
        ("luts_total", luts_total);
        ("verify_fail_frac", ratio (float failed) (float checked));
      ]
      @ gains @ rows @ traced;
    record =
      [
        ("passes", J.Int (List.length passes));
        ( "runs",
          J.List
            (List.map
               (fun (job, d) ->
                 let fields = match d with J.Obj l -> l | _ -> [] in
                 J.Obj
                   ([
                      ("circuit", J.Str job.circuit);
                      ("algo", J.Str (Synth.algo_name job.algo));
                      ("seeded", J.Bool job.seeded);
                    ]
                   @ List.filter (fun (k, _) -> k <> "spans" && k <> "audit") fields))
               first) );
      ];
  }
