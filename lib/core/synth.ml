open Prelude
open Circuit

(* observability (doc/OBSERVABILITY.md): top-level phase durations and the
   per-run result debug log record *)
let s_total = Obs.Span.make "synth.total"
let s_search = Obs.Span.make "synth.search"
let s_final = Obs.Span.make "synth.final_labels"
let s_mapgen = Obs.Span.make "synth.mapgen"
let s_area = Obs.Span.make "synth.area"
let s_relax = Obs.Span.make "synth.relax"
let s_realize = Obs.Span.make "synth.realize"
let h_e2e = Obs.Histogram.make "synth.e2e_seconds"

type algo = [ `Turbosyn | `Turbomap | `Flowsyn_s ]

(* the one table of algorithm names: CLI options, logs, stats and the
   serve API all read and write these *)
let algo_names : (algo * string) list =
  [ (`Turbosyn, "turbosyn"); (`Turbomap, "turbomap"); (`Flowsyn_s, "flowsyn-s") ]

let algo_name a = List.assoc a algo_names

let algo_of_name s =
  List.find_map (fun (a, n) -> if n = s then Some a else None) algo_names

type options = {
  k : int;
  cmax : int;
  pld : bool;
  exhaustive : bool;
  area_recovery : bool;
  phi_max_den : int option;
  multi_output : bool;
  jobs : int;
  probe_jobs : int;
}

let default_options ?(k = 5) () =
  {
    k;
    cmax = 15;
    pld = true;
    exhaustive = true;
    area_recovery = true;
    phi_max_den = Some 24;
    multi_output = false;
    jobs = 1;
    probe_jobs = 1;
  }

type result = {
  algo : algo;
  mapped : Netlist.t;
  realized : Netlist.t option;
  phi : Rat.t;
  clock_period : int;
  latency : int;
  luts : int;
  luts_before_area : int;
  resyn_nodes : int;
  probes : int;
  label_stats : Seqmap.Label_engine.stats option;
  cpu_seconds : float;
  (* audit evidence (doc/AUDIT.md); [None] for algorithms that do not run
     the label engine (FlowSYN-s) or when realization fails *)
  labels : Rat.t array option;
  prov : Seqmap.Label_engine.prov option array option;
  lags : int array option;
}

let engine_options o ~resynthesize =
  {
    (Seqmap.Label_engine.default_options ~k:o.k) with
    resynthesize;
    cmax = o.cmax;
    exhaustive = o.exhaustive;
    pld = o.pld;
    multi_output = o.multi_output;
  }

let finish ?labels ?prov algo o ~mapped ~phi ~resyn_nodes ~probes ~label_stats
    ~cpu_seconds =
  let luts_before_area = List.length (Netlist.gates mapped) in
  let mapped =
    if o.area_recovery then
      Obs.Span.time s_area (fun () -> Area.reduce mapped ~k:o.k)
    else mapped
  in
  let realized, clock_period, latency, lags =
    Obs.Span.time s_realize (fun () ->
        match Seqmap.Turbomap.realize_full mapped with
        | Some (r, p, l, lag) -> (Some r, p, l, Some lag)
        | None -> (None, -1, 0, None))
  in
  {
    algo;
    mapped;
    realized;
    phi;
    clock_period;
    latency;
    luts = List.length (Netlist.gates mapped);
    luts_before_area;
    resyn_nodes;
    probes;
    label_stats;
    cpu_seconds;
    labels;
    prov;
    lags;
  }

let run_seq algo o nl ~resynthesize =
  let t0 = Sys.time () in
  let opts = engine_options o ~resynthesize in
  let module LE = Seqmap.Label_engine in
  let cache = LE.new_cache () in
  (* cross-phi cut memo: cuts found by the search's probes are
     revalidated instead of recomputed at nearby phi and by the final
     run *)
  let cutmemo = LE.new_cut_memo nl in
  let phi, probes, stats =
    Obs.Span.time s_search (fun () ->
        Seqmap.Turbomap.minimum_ratio ~cache ~cutmemo
          ?phi_max_den:o.phi_max_den opts nl)
  in
  let outcome, s =
    Obs.Span.time s_final (fun () -> LE.run ~cache ~cutmemo opts nl ~phi)
  in
  Seqmap.Turbomap.add_stats stats s;
  let impls, labels, prov =
    match outcome with
    | LE.Feasible { impls; labels; prov } -> (impls, labels, prov)
    | LE.Infeasible ->
        (* the search found phi feasible, yet on rare small random
           circuits this run rejects it: under TurboSYN when UB <= 1
           goes unprobed, and when the search accepted phi through
           cut-memo hits that a run without the memo rejects *)
        assert false
  in
  let mapped =
    Obs.Span.time s_mapgen (fun () ->
        let mapped = Seqmap.Mapgen.generate nl ~impls in
        Netlist.validate_exn ~k:o.k mapped;
        mapped)
  in
  (* the paper's label relaxation: drop decomposition trees whose label
     increase does not create a positive loop (area recovery step 1) *)
  let mapped =
    if resynthesize && o.area_recovery then
      Obs.Span.time s_relax (fun () -> fst (Relax.relax nl ~impls ~phi))
    else mapped
  in
  let cpu = Sys.time () -. t0 in
  finish algo o ~mapped ~phi ~labels ~prov
    ~resyn_nodes:stats.LE.decompositions ~probes:(probes + 1)
    ~label_stats:(Some stats) ~cpu_seconds:cpu

let run_flowsyn_s o nl =
  let t0 = Sys.time () in
  let mapped, report =
    Flowmap.Flowsyn.map_sequential ~resynthesize:true ~cmax:o.cmax
      ~exhaustive:o.exhaustive nl ~k:o.k
  in
  let cpu = Sys.time () -. t0 in
  (* the searched flows clamp phi to [1, UB]; an MDR below 1 (every loop
     of LUTs holds more registers than LUTs) still needs a period of 1 *)
  let phi =
    match report.Flowmap.Flowsyn.mdr with
    | Graphs.Cycle_ratio.Ratio r -> Rat.max r Rat.one
    | Graphs.Cycle_ratio.No_cycle -> Rat.zero
    | Graphs.Cycle_ratio.Infinite -> Rat.of_int (-1)
  in
  finish `Flowsyn_s o ~mapped ~phi
    ~resyn_nodes:report.Flowmap.Flowsyn.resyn_nodes ~probes:0 ~label_stats:None
    ~cpu_seconds:cpu

let run ?options algo nl =
  let o = match options with Some o -> o | None -> default_options () in
  if o.jobs <> 1 then invalid_arg "Synth.run: jobs must be 1";
  if o.probe_jobs <> 1 then invalid_arg "Synth.run: probe_jobs must be 1";
  Netlist.validate_exn ~k:o.k nl;
  let t_start = if Obs.enabled () then Timer.wall () else 0. in
  let r =
    Obs.Span.time s_total (fun () ->
        match algo with
        | `Turbosyn -> run_seq `Turbosyn o nl ~resynthesize:true
        | `Turbomap -> run_seq `Turbomap o nl ~resynthesize:false
        | `Flowsyn_s -> run_flowsyn_s o nl)
  in
  if Obs.enabled () then
    Obs.Histogram.observe h_e2e (Timer.wall () -. t_start);
  if Obs.Log.enabled_for Obs.Log.Debug then
    Obs.Log.debug "synth.result"
      [
        ("algo", Obs.Json.Str (algo_name r.algo));
        ("circuit", Obs.Json.Str (Netlist.name nl));
        ("phi", Obs.Json.Str (Rat.to_string r.phi));
        ("clock_period", Obs.Json.Int r.clock_period);
        ("latency", Obs.Json.Int r.latency);
        ("luts", Obs.Json.Int r.luts);
        ("probes", Obs.Json.Int r.probes);
        ("cpu_seconds", Obs.Json.Float r.cpu_seconds);
      ];
  r
