open Prelude
open Circuit

(* observability (doc/OBSERVABILITY.md): the ratio search — one trace event
   and one span entry per probe, phase spans around the search itself, the
   final label run and mapping generation *)
let c_probes = Obs.Counter.make "search.probes"
let c_feasible = Obs.Counter.make "search.feasible_probes"
let c_infeasible = Obs.Counter.make "search.infeasible_probes"
let c_parallel = Obs.Counter.make "search.parallel_probes"
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

(* ------------------------------------------------------------------ *)
(* Speculative parallel ratio search.                                  *)
(*                                                                     *)
(* The probe sequence of the search is a deterministic function of the *)
(* oracle's answers, so it can be REPLAYED over a memo of known        *)
(* (phi, feasible) pairs: the replay either terminates or stops at the *)
(* first memo miss — the next probe the sequential search would run.   *)
(* Expanding both possible answers of each pending miss (a BFS over    *)
(* the search's decision tree) yields up to [jobs] distinct probe      *)
(* points of which one is certainly needed and the rest are            *)
(* speculative; all are evaluated concurrently (one [Domain] each),    *)
(* their verdicts enter the memo, and the replay advances.  Since the  *)
(* real answer path is followed verdict for verdict, the terminal phi  *)
(* is exactly the sequential search's — speculation only changes how   *)
(* many probes run, never which answer decides.                        *)
(* ------------------------------------------------------------------ *)

exception Probe_miss of Rat.t

(* The pure decision procedure the search driver replays (the [ub <= 1]
   shortcut needs no probe and stays in the caller).  Returns [None] only when the oracle calls [ub] infeasible —
   impossible for the real oracle (the trivial mapping realizes UB) but
   reachable under speculative assumptions. *)
let search_decision ~ub ~max_den ~feasible =
  if feasible Rat.one then Some Rat.one
  else Rat.stern_brocot_min ~lo:Rat.one ~hi:ub ~max_den ~feasible

let replay memo assumptions ~ub ~max_den =
  let feasible phi =
    match List.assoc_opt phi assumptions with
    | Some b -> b
    | None -> (
        match Hashtbl.find_opt memo phi with
        | Some b -> b
        | None -> raise (Probe_miss phi))
  in
  try `Done (search_decision ~ub ~max_den ~feasible)
  with Probe_miss phi -> `Miss phi

(* Up to [jobs] distinct probe points the search may need next: the
   certainly-needed one first, then the pending probes of the assumption
   branches in BFS order over the decision tree. *)
let speculative_frontier memo ~ub ~max_den ~jobs =
  let picked = ref [] in
  let npicked = ref 0 in
  let seen = Hashtbl.create 16 in
  let queue = Queue.create () in
  let budget = ref (64 * jobs) in
  Queue.add [] queue;
  while !npicked < jobs && !budget > 0 && not (Queue.is_empty queue) do
    decr budget;
    let asm = Queue.pop queue in
    match replay memo asm ~ub ~max_den with
    | `Done _ -> ()
    | `Miss phi ->
        if not (Hashtbl.mem seen phi) then begin
          Hashtbl.replace seen phi ();
          picked := phi :: !picked;
          incr npicked
        end;
        Queue.add ((phi, true) :: asm) queue;
        Queue.add ((phi, false) :: asm) queue
  done;
  List.rev !picked

let minimum_ratio ?cache ?cutmemo ?phi_max_den ?(jobs = 1) ?pool opts nl =
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
  (* [use_pool = false] on speculative worker domains: the intra-phi pool
     (when one is supplied) belongs to the driver domain — Pool batches
     are single-caller, so only the non-speculative probe may use it.
     The cross-phi cut memo follows the same rule for a different
     reason: the memo's contents must be a deterministic function of the
     decisive probe sequence, and only the driver's probes replay the
     sequential descent — a speculative domain writing cuts would make
     them depend on scheduling (doc/CONCURRENCY.md). *)
  let run_probe ?(use_pool = true) cache phi =
    let pool = if use_pool then pool else None in
    let cutmemo = if use_pool then cutmemo else None in
    let outcome, s =
      Obs.Span.time s_probe (fun () ->
          Label_engine.run ?cache ?cutmemo ?pool opts nl ~phi)
    in
    let ok =
      match outcome with
      | Label_engine.Feasible _ -> true
      | Label_engine.Infeasible -> false
    in
    (ok, s)
  in
  (* One verdict per phi.  The decision procedure revisits points it
     has already decided (the search's own [lo], the mediant a ladder
     starts from), and each probe is a full label computation, so every
     step replays the procedure over the memo and probes only its first
     miss, plus up to [jobs - 1] speculative points on other domains.
     With [jobs = 1] the frontier is that miss alone, run on the calling
     domain: the sequential search, each phi probed once. *)
  let memo : (Rat.t, bool) Hashtbl.t = Hashtbl.create 32 in
  (* the resyn memo table is mutex-guarded, so every speculative domain
     shares the calling domain's cache: a decomposition computed by any
     probe serves all later ones on any domain *)
  let rec speculate ~ub ~max_den =
    match replay memo [] ~ub ~max_den with
    | `Done r -> r
    | `Miss _ ->
        let batch =
          speculative_frontier memo ~ub ~max_den ~jobs:(max 1 jobs)
        in
        let spawned =
          List.mapi
            (fun i phi ->
              if i = 0 then `Self phi
              else
                `Dom
                  ( phi,
                    Domain.spawn (fun () -> run_probe ~use_pool:false cache phi)
                  ))
            batch
        in
        let evaluated =
          List.map
            (function
              | `Self phi -> (phi, run_probe cache phi)
              | `Dom (phi, d) -> (phi, Domain.join d))
            spawned
        in
        List.iter
          (fun (phi, (ok, s)) ->
            Hashtbl.replace memo phi ok;
            record phi ok s)
          evaluated;
        Obs.Counter.add c_parallel (List.length evaluated - 1);
        speculate ~ub ~max_den
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
        match speculate ~ub ~max_den with
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

let map_full ?options ?phi_max_den ?jobs nl ~k =
  let opts =
    match options with Some o -> o | None -> Label_engine.default_options ~k
  in
  let cache = Label_engine.new_cache () in
  (* cross-phi cut memo: cuts found by the search's decisive probes are
     revalidated instead of recomputed at nearby phi and by the final
     run; only the driver-domain probes see it (see [run_probe]) *)
  let cutmemo = Label_engine.new_cut_memo nl in
  (* one shared intra-phi pool across every probe and the final run —
     but only when probes are not themselves speculated onto domains
     (the two parallelism axes compose multiplicatively in domain count;
     with speculation on, each probe's [Label_engine.run] spins its own
     lanes from [opts.jobs] instead) *)
  let probe_jobs = match jobs with Some j -> j | None -> 1 in
  let pool =
    if opts.Label_engine.jobs > 1 && probe_jobs <= 1 then
      Some (Pool.create ~domains:opts.Label_engine.jobs)
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
  @@ fun () ->
  let phi, probes, stats =
    Obs.Span.time s_search (fun () ->
        minimum_ratio ~cache ~cutmemo ?phi_max_den ?jobs ?pool opts nl)
  in
  let outcome, s =
    Obs.Span.time s_final (fun () ->
        Label_engine.run ~cache ~cutmemo ?pool opts nl ~phi)
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

let map ?options ?phi_max_den ?jobs nl ~k =
  let mapped, report, _ = map_full ?options ?phi_max_den ?jobs nl ~k in
  (mapped, report)
