open Prelude
open Circuit

(* observability (doc/OBSERVABILITY.md): the ratio search — one trace event
   and one span entry per probe, phase spans around the search itself, the
   final label run and mapping generation *)
let c_probes = Obs.Counter.make "search.probes"
let c_feasible = Obs.Counter.make "search.feasible_probes"
let c_infeasible = Obs.Counter.make "search.infeasible_probes"
let s_probe = Obs.Span.make "search.probe"
let s_search = Obs.Span.make "synth.search"
let s_final = Obs.Span.make "synth.final_labels"
let s_mapgen = Obs.Span.make "synth.mapgen"

type report = {
  phi : Rat.t;
  luts : int;
  mapped_mdr : Graphs.Cycle_ratio.result;
  clock_period : int;
  probes : int;
  stats : Label_engine.stats;
  labels : Rat.t array;
  prov : Label_engine.prov option array;
}

let add_stats (acc : Label_engine.stats) (s : Label_engine.stats) =
  acc.Label_engine.iterations <- acc.Label_engine.iterations + s.Label_engine.iterations;
  acc.Label_engine.flow_tests <- acc.Label_engine.flow_tests + s.Label_engine.flow_tests;
  acc.Label_engine.decompositions <-
    acc.Label_engine.decompositions + s.Label_engine.decompositions;
  acc.Label_engine.pld_hits <- acc.Label_engine.pld_hits + s.Label_engine.pld_hits

(* The decision procedure of the search (the [ub <= 1] shortcut needs
   no probe and stays in the caller).  Returns [None] only when the
   oracle calls [ub] infeasible — impossible for the real oracle (the
   trivial mapping realizes UB). *)
let search_decision ~ub ~max_den ~feasible =
  if feasible Rat.one then Some Rat.one
  else Rat.stern_brocot_min ~lo:Rat.one ~hi:ub ~max_den ~feasible

let minimum_ratio ?cache ?cutmemo ?phi_max_den ?(jobs = 1) opts nl =
  if jobs <> 1 then invalid_arg "Turbomap.minimum_ratio: jobs must be 1";
  let acc =
    {
      Label_engine.iterations = 0;
      flow_tests = 0;
      decompositions = 0;
      pld_hits = 0;
    }
  in
  let probes = ref 0 in
  let record phi ok (s : Label_engine.stats) =
    incr probes;
    Obs.Counter.incr c_probes;
    add_stats acc s;
    Obs.Counter.incr (if ok then c_feasible else c_infeasible);
    if Obs.enabled () then
      Obs.Trace.emit "search.probe"
        [
          ("phi", Obs.Json.Str (Rat.to_string phi));
          ("feasible", Obs.Json.Bool ok);
          ("iterations", Obs.Json.Int s.Label_engine.iterations);
          ("cut_tests", Obs.Json.Int s.Label_engine.flow_tests);
        ]
  in
  (* One verdict per phi.  The decision procedure revisits points it has
     already decided (the search's own [lo], the mediant a ladder starts
     from), and each probe is a full label computation, so the oracle
     probes a phi on its first call and answers later calls from the
     memo. *)
  let memo : (Rat.t, bool) Hashtbl.t = Hashtbl.create 32 in
  let feasible phi =
    match Hashtbl.find_opt memo phi with
    | Some ok -> ok
    | None ->
        let outcome, s =
          Obs.Span.time s_probe (fun () ->
              Label_engine.run ?cache ?cutmemo opts nl ~phi)
        in
        let ok =
          match outcome with
          | Label_engine.Feasible _ -> true
          | Label_engine.Infeasible -> false
        in
        Hashtbl.replace memo phi ok;
        record phi ok s;
        ok
  in
  match Netlist.mdr_ratio nl with
  | Graphs.Cycle_ratio.Infinite ->
      invalid_arg "Turbomap: combinational loop"
  | Graphs.Cycle_ratio.No_cycle -> (Rat.zero, !probes, acc)
  | Graphs.Cycle_ratio.Ratio ub ->
      let total_weight =
        Array.fold_left
          (fun a e -> a + e.Graphs.Cycle_ratio.weight)
          0 (Netlist.retiming_edges nl)
      in
      (* Simple cycles of a mapped circuit can carry more registers than
         the source's cycles: a LUT may read its own output through w
         registers by unrolling a loop (each unroll level consumes LUT
         inputs, so at most K-1 levels are useful).  Bound the ratio
         denominators accordingly. *)
      let max_den = max 1 (total_weight * (opts.Label_engine.k - 1)) in
      let max_den =
        match phi_max_den with
        | Some d -> min max_den (max 1 d)
        | None -> max_den
      in
      (* the paper searches targets in [1, UB]: the realizable clock period
         is max(1, ceil phi), so refining below ratio 1 only costs LUTs
         (deeper loop unrolling) without speeding the clock *)
      if Rat.( <= ) ub Rat.one then (ub, !probes, acc)
      else
        match search_decision ~ub ~max_den ~feasible with
        | Some phi -> (phi, !probes, acc)
        | None ->
            (* UB is feasible by construction (the trivial mapping) *)
            assert false

let realize_full mapped =
  match Retime.Pipeline.period_lower_bound mapped with
  | `Infinite -> None
  | `Period period ->
      let r = Retime.Pipeline.lags_at mapped ~period in
      (* greedy FF minimization at the achieved period (skipped on very
         large circuits where the local search would dominate runtime) *)
      let r =
        if List.length (Netlist.gates mapped) <= 1500 then
          Retime.Retiming.minimize_ffs mapped ~period ~r
        else r
      in
      let out = Retime.Retiming.apply mapped ~r in
      Some (out, period, Retime.Pipeline.latency mapped ~r, r)

let realize mapped =
  Option.map
    (fun (out, period, latency, _r) -> (out, period, latency))
    (realize_full mapped)

let map_full ?options ?phi_max_den nl ~k =
  let opts =
    match options with Some o -> o | None -> Label_engine.default_options ~k
  in
  let cache = Label_engine.new_cache () in
  (* cross-phi cut memo: cuts found by the search's probes are
     revalidated instead of recomputed at nearby phi and by the final
     run *)
  let cutmemo = Label_engine.new_cut_memo nl in
  let phi, probes, stats =
    Obs.Span.time s_search (fun () ->
        minimum_ratio ~cache ~cutmemo ?phi_max_den opts nl)
  in
  let outcome, s =
    Obs.Span.time s_final (fun () ->
        Label_engine.run ~cache ~cutmemo opts nl ~phi)
  in
  add_stats stats s;
  match outcome with
  | Label_engine.Infeasible ->
      (* cannot happen: phi came back feasible from the search *)
      assert false
  | Label_engine.Feasible { impls; labels; prov } ->
      let mapped =
        Obs.Span.time s_mapgen (fun () ->
            let mapped = Mapgen.generate nl ~impls in
            Netlist.validate_exn ~k mapped;
            mapped)
      in
      let mapped_mdr = Netlist.mdr_ratio mapped in
      let clock_period =
        match Retime.Pipeline.period_lower_bound mapped with
        | `Period p -> p
        | `Infinite -> -1
      in
      ( mapped,
        {
          phi;
          luts = Mapgen.lut_count mapped;
          mapped_mdr;
          clock_period;
          probes = probes + 1;
          stats;
          labels;
          prov;
        },
        impls )

let map ?options ?phi_max_den nl ~k =
  let mapped, report, _ = map_full ?options ?phi_max_den nl ~k in
  (mapped, report)
