(* Shared pieces of the repository benchmark: the metric registry, summary
   statistics, process probes, the in-memory stage-span recorder and the
   result line. *)

open Prelude
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Metric registry                                                      *)
(* ------------------------------------------------------------------ *)

(* Untraced runs report exactly these, on every workload. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("flow_s", "s");
    ("flow_cpu_s", "s");
    ("peak_rss_mb", "MB");
    ("phi_geomean", "ratio");
    ("luts_total", "count");
  ]

(* Stages of the replayed flow, in flow order.  [audit_build] and
   [audit_verify] are timed after the replay and lie outside [flow_s]. *)
let stages =
  [
    "parse"; "search"; "final_labels"; "mapgen"; "mdr"; "relax"; "flowsyn";
    "area"; "realize"; "write"; "audit_build"; "audit_verify";
  ]

(* Obs counters read after the traced pass (synth workloads) or as the
   delta of two /metrics scrapes around the load (serve-mix). *)
let counters =
  [
    "label.decomp_attempts"; "label.decomp_rescues"; "decomp.calls";
    "decomp.bound_set_trials"; "expand.builds"; "expand.nodes";
    "maxflow.networks"; "maxflow.blocking_phases"; "label.worklist_pushes";
    "label.snapshot_reuses"; "pld.prunes"; "label.iterations";
    "label.cut_tests"; "search.probes";
  ]

(* Ratios derived from counters: (name, numerator, denominator terms). *)
let ratios =
  [
    ("decomp.success_rate", "decomp.successes", [ "decomp.calls" ]);
    ( "label.resyn_cache_hit_rate",
      "label.resyn_cache_hits",
      [ "label.resyn_cache_hits"; "decomp.calls" ] );
    ("cut.memo_hit_rate", "cut.memo_hits", [ "cut.memo_hits"; "cut.memo_misses" ]);
    ("cut.enum_hit_rate", "cut.enum_hits", [ "cut.enum_hits"; "cut.enum_misses" ]);
    ("search.infeasible_share", "search.infeasible_probes", [ "search.probes" ]);
  ]

let counter_inputs =
  List.sort_uniq compare
    (counters
    @ List.concat_map (fun (_, num, dens) -> num :: dens) ratios)

(* One row per (circuit, algorithm) run, over both synth workloads. *)
let run_rows =
  let algos = [ "turbosyn"; "turbomap"; "flowsyn-s" ] in
  List.concat_map
    (fun c ->
      List.filter_map
        (fun a ->
          if c = "s526" && a = "turbosyn" then None
          else Some (Printf.sprintf "run.%s.%s_s" c a))
        algos)
    [ "bbara"; "bbsse"; "cse"; "s298"; "s526"; "fsm" ]
  @ [
      "run.mix400.turbomap_s"; "run.mix400.flowsyn-s_s"; "run.big1k.flowsyn-s_s";
      "run.mixseed.flowsyn-s_s";
    ]

let serve_layer =
  [
    ("serve_rps", "1/s");
    ("serve_p50_ms", "ms");
    ("serve_p99_ms", "ms");
    ("serve.p99_samples_beyond", "count");
    ("serve_within_slo_frac", "share");
    ("serve_fail_frac", "share");
    ("serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", "ms");
    ("serve.ttfb_p50_ms", "ms");
    ("serve.server_p50_ms", "ms");
    ("serve.scrape_p50_ms", "ms");
    ("serve.queue_wait_mean_ms", "ms");
    ("serve.shed_count", "count");
    ("serve.cache_hit_rate", "share");
    ("serve.response_bytes_mean", "bytes");
    ("netlist.canon_digest_ms", "ms");
    ("workloads.build_ms", "ms");
  ]

(* Traced runs report exactly these, on every workload; a layer the
   workload does not exercise reads 0. *)
let per_layer =
  List.concat_map
    (fun s -> [ ("stage." ^ s ^ "_s", "s"); ("stage." ^ s ^ "_mwords", "Mwords") ])
    stages
  @ [
      ("stage.label_only_s", "s");
      ("stage.unattributed_frac", "share");
      ("obs.overhead_frac", "share");
      ("heap.top_mb", "MB");
      ("verify_fail_frac", "share");
      ("period_gain_vs_turbomap", "x");
      ("period_gain_vs_flowsyn", "x");
    ]
  @ List.map (fun c -> (c, "count")) counters
  @ List.map (fun (r, _, _) -> (r, "share")) ratios
  @ serve_layer
  @ List.map (fun r -> (r, "s")) run_rows

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort Float.compare l

(* Nearest-rank quantile of a non-empty list. *)
let quantile q l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (mean (List.map log l))

let ratio num den = if den = 0. then 0. else num /. den

(* The counter and ratio metrics, given how to read one counter. *)
let counter_metrics counter =
  List.map (fun c -> (c, counter c)) counters
  @ List.map
      (fun (r, num, dens) ->
        (r, ratio (counter num) (List.fold_left (fun a d -> a +. counter d) 0. dens)))
      ratios

(* φ as rendered by [Rat.to_string], for QoR aggregates.  φ below 1
   cannot shorten the realizable clock period (one LUT delay), so the
   aggregates clamp there; the suite circuits are all cyclic. *)
let qor_phi s =
  let v =
    match String.split_on_char '/' s with
    | [ a ] -> float_of_string a
    | [ a; b ] -> float_of_string a /. float_of_string b
    | _ -> nan
  in
  Float.max 1. v

let algo_of_name = function
  | "turbosyn" -> `Turbosyn
  | "turbomap" -> `Turbomap
  | "flowsyn-s" -> `Flowsyn_s
  | a -> invalid_arg ("unknown algorithm " ^ a)

(* A number member of a JSON object; nan when absent. *)
let num doc key =
  match J.member key doc with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float i
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* Process probes (Linux /proc)                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* Peak resident set of [pid] in MB, from VmHWM. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%f kB" (fun kb -> Some (kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:nan

(* Online processors, as nproc counts them without an affinity mask. *)
let nproc () =
  String.split_on_char '\n' (read_file "/proc/cpuinfo")
  |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
  |> List.length

(* User + system CPU seconds of another process (clock ticks of 1/100 s). *)
let proc_cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command field is parenthesized and may hold spaces *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields 14 and 15 of stat(5): utime, stime; [rest] starts at field 3 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Words allocated by this domain so far: the exact minor count plus the
   direct major allocations. *)
(* Seconds for two fixed kernels independent of the code under test: a
   pointer chase through an 8 MB array (memory latency) and an integer
   mixing loop (the core's speed).  The run record carries them so that
   a change in the host's speed between runs can be told from a change
   in the code. *)
let host_reference () =
  let n = 1 lsl 20 in
  let next = Array.init n (fun i -> ((i * 7919) + 13) land (n - 1)) in
  let t0 = Timer.wall () in
  let j = ref 0 in
  for _ = 1 to 2 * n do
    j := next.(!j)
  done;
  let t1 = Timer.wall () in
  let h = ref 0 in
  for i = 1 to 50 * n do
    h := (!h lxor i) * 0x9E3779B1 land max_int
  done;
  let t2 = Timer.wall () in
  ignore (Sys.opaque_identity (!j + !h));
  J.Obj [ ("memory", J.Float (t1 -. t0)); ("compute", J.Float (t2 -. t1)) ]

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* ------------------------------------------------------------------ *)
(* Stage spans, kept in memory and written once at the end              *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  parent : string;  (** the (circuit, algorithm) run or the /map key; "" for a run span *)
  lane : int;  (** the load-generator client, 0 for synth runs *)
  t0 : float;
  t1 : float;
  words : float;
}

let spans : span list ref = ref []
let spans_lock = Mutex.create ()
let add_span s = Mutex.protect spans_lock (fun () -> spans := s :: !spans)

let span ~parent name f =
  let w0 = allocated_words () in
  let t0 = Timer.wall () in
  let r = f () in
  let t1 = Timer.wall () in
  add_span { name; parent; lane = 0; t0; t1; words = allocated_words () -. w0 };
  r

(* Chrome-trace "X" events; [turbosyn flame --from-timeline] folds them
   by interval containment into run;stage stacks. *)
let write_trace path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let us t = J.Float (Float.round ((t -. origin) *. 1e6)) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (if s.parent = "" then "run" else "stage"));
        ("ph", J.Str "X");
        ("ts", us s.t0);
        ("dur", J.Float (Float.round ((s.t1 -. s.t0) *. 1e6)));
        ("pid", J.Int 1);
        ("tid", J.Int (s.lane + 1));
        ( "args",
          J.Obj [ ("parent", J.Str s.parent); ("words", J.Float s.words) ] );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.to_string (J.Obj [ ("traceEvents", J.List (List.map event all)) ]));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Run outcome                                                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  record : (string * J.t) list;  (** workload-specific run-record members *)
}

(* Failed checks, keyed by the run or request they belong to; the
   number of distinct keys is the run's [failed]. *)
let failures : (string * string) list ref = ref []

let fail ~key fmt =
  Printf.ksprintf
    (fun msg ->
      failures := (key, msg) :: !failures;
      prerr_endline ("perfbench: check failed: " ^ key ^ ": " ^ msg))
    fmt

let failed_keys () = List.length (List.sort_uniq compare (List.map fst !failures))

(* The metrics a run must print, with their units; measured values fill
   in, layers the workload does not exercise read 0 in traced runs, and
   a missing end-to-end value is a bug of the benchmark itself. *)
let metrics_json ~trace measured =
  let wanted = if trace then per_layer else end_to_end in
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name measured with
           | Some v -> v
           | None when trace -> 0.
           | None -> invalid_arg ("perfbench: end-to-end metric not measured: " ^ name)
         in
         if not (Float.is_finite v) then
           invalid_arg ("perfbench: non-finite metric: " ^ name);
         (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
       wanted)
