open Prelude
open Circuit

(* observability (doc/OBSERVABILITY.md): the label-computation inner loop —
   what each probe spends its time on and why labels move *)
let c_iterations = Obs.Counter.make "label.iterations"
let c_cut_tests = Obs.Counter.make "label.cut_tests"
let c_cut_pass = Obs.Counter.make "label.cut_test_passes"
let c_cut_fail = Obs.Counter.make "label.cut_test_fails"
let c_decomp_attempts = Obs.Counter.make "label.decomp_attempts"
let c_decomp_rescues = Obs.Counter.make "label.decomp_rescues"
let c_cache_hits = Obs.Counter.make "label.resyn_cache_hits"
let c_divergences = Obs.Counter.make "label.divergences"
let c_cap_exits = Obs.Counter.make "label.cap_exits"
let c_periodic = Obs.Counter.make "pld.periodic_stops"
let c_harvest_reuse = Obs.Counter.make "label.harvest_cut_reuses"
let c_snap_reuse = Obs.Counter.make "label.snapshot_reuses"
let c_cone_reuses = Obs.Counter.make "label.cone_reuses"

(* [label.worklist_pushes] and [label.worklist_skips] belonged to the
   retired dirty-set scheduler; they stay registered, reading 0, because
   the benchmark's per-layer counters read them (doc/OBSERVABILITY.md). *)
let _ = Obs.Counter.make "label.worklist_pushes"
let _ = Obs.Counter.make "label.worklist_skips"

(* two-layer cut engine (doc/PERF.md): how each K-cut query was
   answered — cross-phi memo, or max-flow.  [cut.enum_hits] and
   [cut.enum_misses] belonged to the retired enumeration pre-filter; they
   stay registered, reading 0, because the benchmark's
   [cut.enum_hit_rate] reads them (doc/OBSERVABILITY.md). *)
let _ = Obs.Counter.make "cut.enum_hits"
let _ = Obs.Counter.make "cut.enum_misses"
let c_memo_hits = Obs.Counter.make "cut.memo_hits"
let c_memo_misses = Obs.Counter.make "cut.memo_misses"
let c_memo_stores = Obs.Counter.make "cut.memo_stores"
let s_flow_test = Obs.Span.make "label.flow_test"
let h_cut_test = Obs.Histogram.make "label.cut_test_seconds"
let h_snap_trace = Obs.Histogram.make "label.snapshot_trace_len"
let s_decomp = Obs.Span.make "label.decomp"
let s_eval = Obs.Span.make "label.resyn_eval"
let s_mincut = Obs.Span.make "label.resyn_mincut"
let s_build = Obs.Span.make "label.expand_build"
let s_cone = Obs.Span.make "label.cone_bdd"
let s_dec = Obs.Span.make "label.decompose_call"
let s_scc = Obs.Span.make "label.scc"

type impl =
  | Cut of (int * int) array
  | Resyn of Decomp.Decompose.tree * (int * int) array

type options = {
  k : int;
  resynthesize : bool;
  cmax : int;
  exhaustive : bool;
  pld : bool;
  max_expansion : int;
  multi_output : bool;
  full_expansion : bool;
}

let default_options ~k =
  {
    k;
    resynthesize = false;
    cmax = 15;
    exhaustive = false;
    pld = true;
    max_expansion = 4000;
    multi_output = false;
    full_expansion = false;
  }

(* candidate expansion slack in [E_v], in levels past the threshold *)
let extra_depth = 3

(* resynthesis tries thresholds L(v) - 0 .. L(v) - resyn_depth *)
let resyn_depth = 2

type cause = Converged | Periodic | Pld_gate | Diverged | Cap

type stats = {
  mutable iterations : int;
  mutable flow_tests : int;
  mutable decompositions : int;
  mutable pld_hits : int;
  mutable cause : cause;
  mutable cause_round : int;
  mutable cause_gates : int;
}

let new_stats () =
  {
    iterations = 0;
    flow_tests = 0;
    decompositions = 0;
    pld_hits = 0;
    cause = Converged;
    cause_round = 0;
    cause_gates = 0;
  }

let cause_name = function
  | Converged -> "converged"
  | Periodic -> "periodic"
  | Pld_gate -> "pld"
  | Diverged -> "diverged"
  | Cap -> "cap"

(* Label provenance (doc/AUDIT.md): which mechanism justified each gate's
   final implementation at the converged labels, captured by the harvest
   pass for the audit layer's certificate. *)
type prov_source =
  | From_cut_test  (* fresh K-feasible-cut flow test passed *)
  | From_snapshot  (* snapshot revalidation answered the test *)
  | From_recorded  (* iteration-recorded passing cut reused *)
  | From_resyn of int  (* decomposition rescue at threshold l(v) - h *)

type prov = {
  p_source : prov_source;
  p_cut : (int * int) array;  (* implementation inputs: (driver, regs) *)
  p_height : Rat.t;  (* realized arrival of the implementation root *)
  p_label : Rat.t;  (* converged label l(v) the height stays within *)
  p_iteration : int;  (* iteration index of the last label change; 0 if
                         the initial label survived *)
}

type outcome =
  | Feasible of {
      labels : Rat.t array;
      impls : impl option array;
      prov : prov option array;
    }
  | Infeasible

exception Over_bound

(* Resynthesis cache.  A decomposition tree depends on the cut (which
   fixes the cone function), the order of the input arrivals (the
   bound-set heuristic takes the earliest inputs) and, through the
   arrival [Decompose] gives each extracted wire (max of its bound set
   + 1) and re-sorts by, on the arrival values too.  The cache is keyed
   by (root, cut, arrival permutation) only: the first tree stored under
   a key wins, and every hit re-evaluates that tree's level against the
   current arrivals, so the answer is exact for the tree the cache
   holds.  Labels drift a little each iteration but rarely change the
   order, so this caches across iterations and probes. *)
(* One memoized cone decomposition.  A tree's level under [arrivals] only
   depends on the arrivals through max_i (arrivals.(i) + depth_i) — the
   maximum LUT-depth of each input position over its leaf occurrences is
   pure tree shape — so the depths are computed once at store time and
   every later level re-evaluation is integer arithmetic on the scaled
   arrivals, with no rational normalization and no tree walk. *)
type cone_entry = {
  ce_tree : Decomp.Decompose.tree option;  (* None: decomposition failed *)
  ce_depths : int array;  (* per input position; -1 when absent from tree *)
  ce_const : int;  (* max depth of input-less LUT leaves; -1 when none *)
}

let cone_entry nvars tree =
  match tree with
  | None -> { ce_tree = None; ce_depths = [||]; ce_const = -1 }
  | Some t ->
      let d = Array.make nvars (-1) in
      let cmax = ref (-1) in
      let rec go depth t =
        match t with
        | Decomp.Decompose.Input i -> if depth > d.(i) then d.(i) <- depth
        | Decomp.Decompose.Lut (_, [||]) ->
            if depth > !cmax then cmax := depth
        | Decomp.Decompose.Lut (_, ch) -> Array.iter (go (depth + 1)) ch
      in
      go 0 t;
      { ce_tree = tree; ce_depths = d; ce_const = !cmax }

(* [trees]: cone decompositions keyed by (root, cut, arrival
   permutation), as above.  [cones]: each cone's reduced BDD, keyed by
   (root, cut) — [cone_bdd] numbers the variables [0 .. n-1] in cut
   order, so the cone function does not depend on the permutation, and
   a decomposition of a cone seen under another order imports it instead
   of rebuilding the cone gate by gate.  [bdd]: the manager every cone
   of the search is built in, leased per cone and forced at the first
   one, so its tables grow to the largest cone once per search rather
   than once per probe, and a search without resynthesis allocates
   none. *)
type resyn_cache = {
  trees : (int * (int * int) array * int array, cone_entry) Hashtbl.t;
  cones : (int * (int * int) array, Bdd.exported) Hashtbl.t;
  bdd : Bdd.man Lazy.t;
}

(* Is [perm], a permutation of the indices of [a], the order
   [Array.stable_sort] puts them in by value?  Exactly when consecutive
   indices ascend by (value, index): O(n), no sort. *)
let stable_order a perm =
  let n = Array.length perm in
  let ok = ref (n = Array.length a) in
  let i = ref 1 in
  while !ok && !i < n do
    let p = perm.(!i - 1) and q = perm.(!i) in
    let c = Int.compare a.(p) a.(q) in
    if c > 0 || (c = 0 && p > q) then ok := false else incr i
  done;
  !ok

(* Labels are scaled integers: with [phi = p/q], every label and
   threshold the engine manipulates has a denominator dividing [q]
   (labels start integral and every update takes maxima, sums with
   integers and subtractions of [phi * w]), so the engine stores
   [slab.(u) = q * l(u)] and works on it in exact integer arithmetic —
   an arrival is [slab.(u) - p*w], a height adds [q], a threshold is
   scaled by [q] too.  A [Rat.t] is built only where a label leaves the
   engine: the outcome's labels, the provenance record and the
   decomposer's arrivals on a cache miss. *)
type scaled = { slab : int array; pnum : int; pden : int }

(* Expansion snapshot.  [Expanded.build] is a
   deterministic BFS whose every branch depends on the labels only
   through the per-node internality predicate, so the (u, w, internal)
   trace of a past build determines it completely: if every trace entry
   evaluates to the same flag under the current labels and threshold,
   rebuilding would reproduce the expansion verbatim — and with it the
   flow verdict, the passing or minimum cut (the flow is deterministic
   on an identical network) and the resynthesis candidate cuts.
   Validating a snapshot is O(trace) integer compares against the
   scaled labels, replacing expansion + network + max-flow in the
   steady state of infeasible probes, where labels rise in lock-step
   with the threshold and the trace never changes.  Nothing in that
   argument depends on the threshold that recorded the snapshot, so a
   snapshot answers a query at any threshold it validates at: the K-cut
   test's, or any resynthesis level's. *)
(* Recorded resynthesis candidates of one snapshot.  [c_complete]
   distinguishes a fully materialized candidate list from one cut short
   because the frontier cut decomposed before the lazy min cut was ever
   computed: a replay that exhausts an incomplete list cannot conclude
   the attempt failed and must fall back to the full evaluation. *)
type cands = { c_list : cand list; c_complete : bool }

(* One recorded candidate cut, with the last resynthesis-cache answer it
   got: the cache, the arrival permutation of the key and the entry.  A
   cache entry never changes once stored, so while the permutation is
   still the stable arrival order ([stable_order]) the same run's cache
   would return the same entry — the replay skips the sort and the
   hashed lookup. *)
and cand = {
  cd_inputs : (int * int) array;
  mutable cd_memo : (resyn_cache * int array * cone_entry) option;
}

(* K-cut verdict of a snapshot's expansion; [Untested] until a cut test
   has run on it (snapshots recorded by resynthesis levels start so) *)
type verdict = Untested | Passed of (int * int) array | Failed

type snap = {
  s_trace : int array;  (* packed (u, w, internal) per local node *)
  s_overflow : bool;
  mutable s_verdict : verdict;
  mutable s_cands : cands option;
      (* resynthesis candidate cuts of this expansion, widest first,
         already filtered; [None] until an attempt level evaluates them.
         Candidates are structural (frontier and min cut of the
         expansion), so they serve every threshold the snapshot
         validates at *)
}

(* Trace packing: one word per expansion node, [u] in bits 31..61, [w] in
   bits 1..30, the internal flag in bit 0.  [pack] rejects what does not
   fit rather than aliasing two nodes. *)
let w_bits = 30
let w_mask = (1 lsl w_bits) - 1
let u_shift = w_bits + 1

let pack u w internal =
  if u < 0 || u >= 1 lsl 31 || w < 0 || w > w_mask then
    invalid_arg "Label_engine: expansion node out of snapshot range";
  (u lsl u_shift) lor (w lsl 1) lor Bool.to_int internal

(* Per-gate snapshots kept, most recently used first.  At least
   [resyn_depth + 1], so one attempt's levels do not evict each other;
   measured on cse TurboSYN, 4 thrashes and 16 gains nothing over 8
   (doc/PERF.md). *)
let ring_size = 8

(* Cross-phi min-cut memo: the per-gate last-passing-cut table and the
   per-gate expansion-snapshot table, made shareable across the probes
   of one ratio search.  A cut's validity as a separating cut of a
   gate's (infinite) expansion is structural — independent of labels,
   thresholds and phi — so only its width (<= K) and the heights of its
   inputs need rechecking at a new threshold, the same O(|cut|) check
   the harvest pass already applies.  A snapshot's validity check
   ([snap_valid]) likewise re-derives every trace flag under the
   current scaled labels and phi, so a snapshot that validates at a new
   probe proves the rebuild there would be verbatim identical — verdict,
   passing cut and resynthesis candidates included — making reuse exact
   at any phi.  Cut entries are overwritten by every fresh pass; each
   gate's snapshot ring keeps its [ring_size] most recently used
   expansions and drops the least recently used one on insert. *)
type cut_memo = {
  m_cuts : (int * int) array option array;
  m_ring : snap list array;
  m_last : snap option array;
}

let new_cut_memo nl =
  let n = Netlist.n nl in
  {
    m_cuts = Array.make n None;
    m_ring = Array.make n [];
    m_last = Array.make n None;
  }

(* Everything one label run reads and scribbles on.  The arenas make the
   per-cut-test allocations (expansion vectors, flow network, BFS scratch)
   a reuse instead of a churn; [bdd] does the same for the resynthesis
   misses' cone BDDs. *)
type ctx = {
  opts : options;
  stats : stats;
  nl : Netlist.t;
  cache : resyn_cache option;
  karena : Flow.Kcut.arena;
  earena : Expanded.arena;
  (* the BDD manager, reset for every cone built: the cache's when the
     run has one, else the run's own; forced at the first cone *)
  bdd : Bdd.man Lazy.t;
  scaled : scaled;  (* the labels *)
  comp : int array;  (* SCC id of every node *)
  (* the SCC [run_scc] is iterating; every other node's label is fixed
     while it does *)
  mutable scc : int;
  (* Periodic stop (doc/ALGORITHM.md): true while the current round of a
     PLD run is still quiet and settled — cleared by anything that
     builds an expansion or writes a candidate memo, and by any of the
     five comparisons of a member-derived quantity against a fixed one
     whose outcome could change as member labels grow.  False outside
     [run_scc], so the sites cost one test there. *)
  mutable settled : bool;
  (* last passing K-cut per gate, recorded during iteration so both the
     in-run memo check and the harvest can reuse it instead of re-running
     a fresh flow test; aliases the caller's [cut_memo] when one is
     supplied, carrying cuts across the probes of a ratio search *)
  recorded : (int * int) array option array;
  (* per-gate expansion snapshots, most recently used first, at most
     [ring_size] each; any of them answers a cut test or a resynthesis
     level it validates at *)
  ring : snap list array;
  (* per-gate snapshot that answered the latest cut test — the only one
     the harvest consults, so provenance does not depend on what else
     the ring holds *)
  last : snap option array;
  (* global iteration index of each gate's last label change (0 = the
     initial label survived); reported as provenance *)
  last_change : int array;
}

(* scaled arrival of [u] through [w] registers: q * (l(u) - phi*w) *)
let arrival sc (u, w) = sc.slab.(u) - (sc.pnum * w)

(* Is [u] outside the SCC being iterated, its label fixed? *)
let outside ctx u = ctx.comp.(u) <> ctx.scc

(* Does a fanin of [fanins] from index [i] on that lies in the SCC
   arrive at [lv]? *)
let rec member_attains ctx fanins lv i =
  i < Array.length fanins
  && ((let ((u, _) as e) = fanins.(i) in
       (not (outside ctx u)) && arrival ctx.scaled e = lv)
     || member_attains ctx fanins lv (i + 1))

(* Settled site 1: [L(v)] shifts with the member labels only when a
   member fanin attains it; one attained by a fixed fanin alone is
   overtaken as the members grow. *)
let big_l ctx v =
  let fanins = Netlist.fanins ctx.nl v in
  if Array.length fanins = 0 then 0 (* constant gate *)
  else begin
    let lv =
      Array.fold_left
        (fun acc e -> Int.max acc (arrival ctx.scaled e))
        (arrival ctx.scaled fanins.(0))
        fanins
    in
    if ctx.settled && not (member_attains ctx fanins lv 0) then
      ctx.settled <- false;
    lv
  end

(* SeqMapII-style full expansion keeps growing the candidate region to the
   node budget instead of stopping a few levels below the threshold — the
   pre-TurboMap network construction whose cost the paper's lineage
   improved on. *)
let effective_depth opts =
  if opts.full_expansion then max_int / 2 else extra_depth

(* [st] here and below: a threshold scaled by q *)
let build_expanded ctx v ~st =
  let sc = ctx.scaled in
  (* internal <=> l(u) - phi*w + 1 > threshold, all scaled by q *)
  let internal_of u w = sc.slab.(u) - (sc.pnum * w) + sc.pden > st in
  ctx.settled <- false;
  Obs.Span.time s_build (fun () ->
      Expanded.build ~arena:ctx.earena ~internal_of ctx.nl ~root:v
        ~extra_depth:(effective_depth ctx.opts)
        ~max_nodes:ctx.opts.max_expansion)

let cut_pairs (ex : Expanded.t) c =
  Array.of_list
    (List.map
       (fun i ->
         let nd = ex.Expanded.nodes.(i) in
         (nd.Expanded.u, nd.Expanded.w))
       c)

let snap_of (ex : Expanded.t) ~verdict =
  let internal = ex.Expanded.internal in
  {
    s_trace =
      Array.mapi
        (fun i nd -> pack nd.Expanded.u nd.Expanded.w internal.(i))
        ex.Expanded.nodes;
    s_overflow = ex.Expanded.overflow;
    s_verdict = verdict;
    s_cands = None;
  }

(* The first entry of trace [tr] that does not re-derive its internal
   flag at scaled threshold [st], or the trace length when every entry
   does.  Index 0 is the root, internal by fiat — skipped. *)
let trace_stop sc tr ~st =
  let n = Array.length tr in
  let i = ref 1 in
  while
    !i < n
    &&
    let e = tr.(!i) in
    let u = e lsr u_shift and w = (e lsr 1) land w_mask in
    sc.slab.(u) - (sc.pnum * w) + sc.pden > st = (e land 1 = 1)
  do
    incr i
  done;
  !i

let trace_valid sc tr ~st = trace_stop sc tr ~st = Array.length tr

(* Settled site 2: of the trace entries the validation compared (up to
   and including [stop]), a fixed node's internal test must already read
   false — the outcome it keeps once the threshold has risen past it. *)
let settle_trace ctx tr ~st ~stop =
  let sc = ctx.scaled in
  let last = Int.min stop (Array.length tr - 1) in
  let i = ref 1 in
  while ctx.settled && !i <= last do
    let e = tr.(!i) in
    let u = e lsr u_shift and w = (e lsr 1) land w_mask in
    if outside ctx u && sc.slab.(u) - (sc.pnum * w) + sc.pden > st then
      ctx.settled <- false;
    incr i
  done

let snap_valid ctx sn ~st =
  let tr = sn.s_trace in
  let stop = trace_stop ctx.scaled tr ~st in
  if ctx.settled then settle_trace ctx tr ~st ~stop;
  let ok = stop = Array.length tr in
  if ok then begin
    Obs.Counter.incr c_snap_reuse;
    Obs.Histogram.observe_int h_snap_trace (Array.length tr)
  end;
  ok

let snapshot_revalidates (ex : Expanded.t) ~labels ~phi ~threshold =
  (* one common denominator turns every quantity into an integer *)
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  let lcm a r = a / gcd a (Rat.den r) * Rat.den r in
  let d = Array.fold_left lcm (lcm (Rat.den phi) threshold) labels in
  let scale r = Rat.num r * (d / Rat.den r) in
  let sc = { slab = Array.map scale labels; pnum = scale phi; pden = d } in
  trace_valid sc (snap_of ex ~verdict:Untested).s_trace ~st:(scale threshold)

(* First snapshot of [v] that validates at [st], moved to the front of
   the ring. *)
let ring_find ctx v ~st =
  let rec go seen = function
    | [] -> None
    | sn :: rest when snap_valid ctx sn ~st ->
        if seen <> [] then ctx.ring.(v) <- sn :: List.rev_append seen rest;
        Some sn
    | sn :: rest -> go (sn :: seen) rest
  in
  go [] ctx.ring.(v)

let ring_insert ctx v sn =
  ctx.ring.(v) <- sn :: List.filteri (fun i _ -> i < ring_size - 1) ctx.ring.(v)

(* Decide whether a K-cut of height <= [st] exists.  The built
   expansion is returned either way: on failure the resynthesis fallback
   starts at the same threshold and can reuse it.

   With resynthesis on, the flow runs with the larger limit
   [max k cmax]: on the passing side this is behavior-identical
   ([max_flow ~limit] only stops early once the flow exceeds the limit,
   so a flow of at most [k] never sees the difference), and on the
   failing side the continued run IS the candidate min cut the
   resynthesis fallback would otherwise recompute from scratch at the
   same threshold — returned as the third component ([None] when not
   precomputed, [Some mc] when it is).

   The verdict is recorded in [into] — a snapshot of [v] that validated
   at [st], so the build reproduces its trace — or else in a new
   snapshot inserted into the ring; either becomes [v]'s latest cut-test
   snapshot and is returned as the second component. *)
let kcut_test ?into ctx v ~st =
  ctx.stats.flow_tests <- ctx.stats.flow_tests + 1;
  Obs.Counter.incr c_cut_tests;
  let k = ctx.opts.k in
  let deep = ctx.opts.resynthesize in
  let kreq = if deep then max k ctx.opts.cmax else k in
  let t_start = if Obs.enabled () then Prelude.Timer.wall () else 0. in
  let ex, pass, mc0 =
    Obs.Span.time s_flow_test (fun () ->
        let ex = build_expanded ctx v ~st in
        if ex.Expanded.overflow then (ex, None, None)
        else
          (* a valid frontier of width <= K is itself a witness cut of the
             expansion, so the max flow is at most K and the flow verdict
             is a foregone pass — skip the network entirely *)
          match Expanded.frontier_witness ex ~k with
          | Some fr -> (ex, Some fr, None)
          | None -> (
              let spec = Expanded.kcut_spec ex in
              match Flow.Kcut.find ~arena:ctx.karena spec ~k:kreq with
              | Flow.Kcut.Cut c when List.length c <= k -> (ex, Some c, None)
              | Flow.Kcut.Cut c -> (ex, None, Some (Some c))
              | Flow.Kcut.Exceeds ->
                  (ex, None, if deep then Some None else None)))
  in
  if Obs.enabled () then
    Obs.Histogram.observe h_cut_test (Prelude.Timer.wall () -. t_start);
  let verdict =
    match pass with
    | Some c ->
        Obs.Counter.incr c_cut_pass;
        Passed (cut_pairs ex c)
    | None ->
        Obs.Counter.incr c_cut_fail;
        Failed
  in
  let sn =
    match into with
    | Some sn ->
        sn.s_verdict <- verdict;
        sn
    | None ->
        let sn = snap_of ex ~verdict in
        ring_insert ctx v sn;
        sn
  in
  ctx.last.(v) <- Some sn;
  (ex, sn, mc0)

(* The iteration's cut test: answered by a validating snapshot whose
   verdict is known, else by a fresh test that fills the snapshot it
   matched (no duplicate) or inserts a new one.  Returns the answering
   snapshot and, for a fresh test, its expansion and precomputed min
   cut (see [kcut_test]). *)
let cut_test ctx v ~st =
  match ring_find ctx v ~st with
  | Some ({ s_verdict = Passed _ | Failed; _ } as sn) ->
      ctx.last.(v) <- Some sn;
      (sn, None, None)
  | into ->
      let ex, sn, mc0 = kcut_test ?into ctx v ~st in
      (sn, Some ex, mc0)

(* Settled site 4: a recorded candidate's arrival order was replayed by
   [stable_order], which compares consecutive entries only.  A
   comparison between a member's arrival and a fixed node's keeps its
   outcome as the members grow exactly when the member already arrives
   strictly later. *)
let settle_order ctx inputs sarr perm =
  for i = 1 to Array.length perm - 1 do
    let p = perm.(i - 1) and q = perm.(i) in
    let mp = not (outside ctx (fst inputs.(p)))
    and mq = not (outside ctx (fst inputs.(q))) in
    if mp <> mq && (if mp then sarr.(p) <= sarr.(q) else sarr.(q) <= sarr.(p))
    then ctx.settled <- false
  done

(* Settled site 5: a decomposition's level is the maximum of its
   input-less LUT depth and each input's arrival plus its depth; a term
   fixed outside the SCC keeps its comparison with the member-derived
   [target] once it is within it. *)
let settle_level ctx inputs sarr e ~target =
  let q = ctx.scaled.pden in
  if e.ce_const >= 0 && e.ce_const * q > target then ctx.settled <- false;
  Array.iteri
    (fun i di ->
      if di >= 0 && outside ctx (fst inputs.(i)) && sarr.(i) + (di * q) > target
      then ctx.settled <- false)
    e.ce_depths

(* The function of [ex]'s root [v] over [cut] (given as local indices and
   as (u, w) [inputs]), variable [vars.(i) = i] for the i-th cut node:
   imported from the run's cache when the cone was built before, under
   any arrival order, else built gate by gate and exported there. *)
let cone_bdd ctx man ex v ~cut ~vars inputs =
  let build () = Expanded.cone_bdd man ctx.nl ex ~cut ~vars in
  match ctx.cache with
  | None -> build ()
  | Some c -> (
      match Hashtbl.find_opt c.cones (v, inputs) with
      | Some x ->
          Obs.Counter.incr c_cone_reuses;
          Bdd.import man x
      | None ->
          let f = build () in
          Hashtbl.replace c.cones (v, inputs) (Bdd.export man f);
          f)

(* TurboSYN sequential functional decomposition at lowered thresholds.
   [ex0], when given, is the expansion the failed cut test just built at
   [target] — the attempt-0 threshold — so attempt 0 starts from it
   instead of rebuilding; [mc0] is that test's precomputed candidate min
   cut of the same expansion; [snap0] is the snapshot that answered the
   cut test — attempt 0 replays its recorded candidate cuts when it has
   any, and records them there otherwise.  Each level h >= 1 is answered
   the same way by any snapshot of [v] that validates at [target - h].
   [target] is scaled by q; a success answers the implementation, its
   scaled root level and [h]. *)
let resyn_test ?ex0 ?mc0 ~snap0 ctx v ~target =
  let opts = ctx.opts and sc = ctx.scaled in
  (* Evaluate one candidate cut.  [cone], when available, computes the
     cone's decomposition on a cache miss; without it a miss answers
     [`Miss] and the caller falls back to the full rebuild (rare: the
     cache hits on almost every evaluation).  The arrivals, their sort
     order (part of the cache key) and the level test against [target]
     are integer arithmetic on [slab]; rational arrivals are only
     materialized on a cache miss, for the decomposer.  A candidate whose
     remembered permutation is still the stable arrival order takes its
     remembered entry without sorting or hashing (see [cand]). *)
  let eval_candidate ~cone cd =
    Obs.Span.time s_eval @@ fun () ->
    let inputs = cd.cd_inputs in
    let n = Array.length inputs in
    let sarr = Array.map (arrival sc) inputs in
    let entry =
      match (cd.cd_memo, ctx.cache) with
      | Some (c, perm, e), Some c' when c == c' && stable_order sarr perm ->
          if ctx.settled then settle_order ctx inputs sarr perm;
          Obs.Counter.incr c_cache_hits;
          Some e
      | _ ->
          let perm = Array.init n Fun.id in
          Array.stable_sort (fun a b -> Int.compare sarr.(a) sarr.(b)) perm;
          (* the root is part of the key: the same cut pairs under a
             different root are a different cone function *)
          let key = (v, inputs, perm) in
          let entry =
            match
              Option.bind ctx.cache (fun c -> Hashtbl.find_opt c.trees key)
            with
            | Some e ->
                Obs.Counter.incr c_cache_hits;
                Some e
            | None -> (
                match cone with
                | None -> None
                | Some build_cone ->
                    ctx.stats.decompositions <- ctx.stats.decompositions + 1;
                    let arrivals =
                      Array.map (fun a -> Rat.make a sc.pden) sarr
                    in
                    let entry = cone_entry n (build_cone ~arrivals) in
                    Option.iter
                      (fun c -> Hashtbl.replace c.trees key entry)
                      ctx.cache;
                    Some entry)
          in
          (match (ctx.cache, entry) with
          | Some c, Some e ->
              ctx.settled <- false;
              cd.cd_memo <- Some (c, perm, e)
          | _ -> ());
          entry
    in
    match entry with
    | None -> `Miss
    | Some { ce_tree = None; _ } -> `No
    | Some ({ ce_tree = Some t; ce_depths; ce_const } as e) ->
        let lvl = ref (if ce_const >= 0 then ce_const * sc.pden else min_int) in
        Array.iteri
          (fun i di ->
            if di >= 0 then begin
              let c = sarr.(i) + (di * sc.pden) in
              if c > !lvl then lvl := c
            end)
          ce_depths;
        if ctx.settled then settle_level ctx inputs sarr e ~target;
        if !lvl <= target then `Impl (Resyn (t, inputs), !lvl) else `No
  in
  let rec attempt h =
    if h > resyn_depth then None
    else
      let st = target - (h * sc.pden) in
      let snapped = if h = 0 then Some snap0 else ring_find ctx v ~st in
      (* full evaluation: build (or adopt) the expansion at this level,
         derive the candidate cuts, record them in the snapshot that
         matched, or in a new one *)
      let full () =
        let ex =
          match ex0 with
          | Some ex when h = 0 -> ex
          | _ -> build_expanded ctx v ~st
        in
        let record_snap () =
          match snapped with
          | Some sn -> sn
          | None ->
              (* an overflowing expansion fails the cut test unflowed *)
              let verdict = if ex.Expanded.overflow then Failed else Untested in
              let sn = snap_of ex ~verdict in
              ring_insert ctx v sn;
              sn
        in
        if ex.Expanded.overflow then begin
          ignore (record_snap ());
          attempt (h + 1)
        end
        else begin
          (* candidate cuts, widest first: the frontier cut gives the
             decomposition the most room (it is what FlowSYN sees at a
             block boundary); the minimum cut keeps the function narrow *)
          let frontier = Expanded.frontier_cut ex in
          let candidate c =
            if c <> [] && List.length c <= opts.cmax then
              Some (c, { cd_inputs = cut_pairs ex c; cd_memo = None })
            else None
          in
          let min_candidate () =
           Obs.Span.time s_mincut (fun () ->
            let mc =
              match mc0 with
              | Some m when h = 0 -> m
              | _ -> (
                  (* cuts wider than cmax are discarded by [candidate],
                     so capping the flow at cmax skips the expensive part
                     of wide min-cut computations *)
                  match
                    Flow.Kcut.find ~arena:ctx.karena (Expanded.kcut_spec ex)
                      ~k:opts.cmax
                  with
                  | Flow.Kcut.Cut c -> Some c
                  | Flow.Kcut.Exceeds -> None)
            in
            match mc with Some c when c <> frontier -> candidate c | _ -> None)
          in
          let eval_cut (c, cd) =
            eval_candidate cd
              ~cone:
                (Some
                   (fun ~arrivals ->
                     let man = Lazy.force ctx.bdd in
                     Bdd.lease man @@ fun () ->
                     let vars = Array.init (Array.length cd.cd_inputs) Fun.id in
                     let f =
                       Obs.Span.time s_cone (fun () ->
                           cone_bdd ctx man ex v ~cut:c ~vars cd.cd_inputs)
                     in
                     Option.map
                       (fun r -> r.Decomp.Decompose.tree)
                       (Obs.Span.time s_dec (fun () -> Decomp.Decompose.decompose ~exhaustive:opts.exhaustive
                          ~multi:opts.multi_output man ~f ~vars ~arrivals
                          ~k:opts.k))))
          in
          (* Lazy min cut (doc/PERF.md): evaluate the frontier cut first
             and only materialize the min cut — a fresh capped flow at
             every h >= 1 — when the frontier fails to decompose, which
             the resynthesis cache makes the uncommon case.  The
             snapshot records whether the candidate list was completed
             so a replay that exhausts it knows the attempt really
             failed (complete) or must re-evaluate (incomplete). *)
          let record cds ~complete =
            (record_snap ()).s_cands <-
              Some { c_list = cds; c_complete = complete }
          in
          let try_min ~tried =
            match min_candidate () with
            | Some ((_, mcd) as mc) -> (
                record (tried @ [ mcd ]) ~complete:true;
                match eval_cut mc with
                | `Impl (impl, lvl) -> Some (impl, lvl, h)
                | _ -> attempt (h + 1))
            | None ->
                record tried ~complete:true;
                attempt (h + 1)
          in
          match candidate frontier with
          | Some ((_, fcd) as fc) -> (
              match eval_cut fc with
              | `Impl (impl, lvl) ->
                  record [ fcd ] ~complete:false;
                  Some (impl, lvl, h)
              | _ -> try_min ~tried:[ fcd ])
          | None -> try_min ~tried:[]
        end
      in
      match snapped with
      | Some sn ->
          if sn.s_overflow then attempt (h + 1)
          else (
            match sn.s_cands with
            | None -> full ()
            | Some { c_list; c_complete } ->
                let rec try_cands = function
                  | [] -> `No
                  | cd :: rest -> (
                      match eval_candidate ~cone:None cd with
                      | `Impl _ as found -> found
                      | `No -> try_cands rest
                      | `Miss -> `Miss)
                in
                (match try_cands c_list with
                | `Impl (impl, lvl) -> Some (impl, lvl, h)
                | `No ->
                    (* an incomplete list ends where a past frontier
                       success cut evaluation short; exhausting it
                       proves nothing about the unmaterialized min cut *)
                    if c_complete then attempt (h + 1) else full ()
                | `Miss -> full ()))
      | None -> full ()
  in
  Obs.Counter.incr c_decomp_attempts;
  let result = Obs.Span.time s_decomp (fun () -> attempt 0) in
  (match result with Some _ -> Obs.Counter.incr c_decomp_rescues | None -> ());
  result

(* Is the recorded cut [cut] still a witness at [st]: at most K wide,
   every input of height <= [st]?  Validity as a separating cut is
   structural (all root-to-source paths cross it, at any phi), so this
   is the whole check — scaled-integer compares, no expansion, no
   network.  Shared by the iteration's memo layer and the harvest.
   Settled site 3: a fixed input keeps fitting once it fits, so one that
   does not yet fit unsettles the round. *)
let cut_fits ctx cut ~st =
  Array.length cut <= ctx.opts.k
  && Array.for_all
       (fun ((u, _) as e) ->
         let fits = arrival ctx.scaled e + ctx.scaled.pden <= st in
         if ctx.settled && (not fits) && outside ctx u then ctx.settled <- false;
         fits)
       cut

(* Memo layer of the cut engine: does the gate's remembered passing cut
   [cut_fits]? *)
let memo_hit ctx v ~st =
  match ctx.recorded.(v) with
  | None -> false
  | Some cut ->
      let hit = cut_fits ctx cut ~st in
      Obs.Counter.incr (if hit then c_memo_hits else c_memo_misses);
      hit

(* One label update; returns true if the label changed.  [bound] is the
   scaled divergence bound. *)
let update ctx bound v =
  let sc = ctx.scaled in
  let l_cur = sc.slab.(v) in
  let lv = big_l ctx v in
  if lv + sc.pden <= l_cur then false
  else begin
    let decision =
      if memo_hit ctx v ~st:lv then lv (* the witness is the recorded entry *)
      else
        (* a snapshot answer means the expansion would rebuild
           identically: its verdict stands without building or flowing
           anything *)
        match cut_test ctx v ~st:lv with
        | { s_verdict = Passed pairs; _ }, _, _ ->
            ctx.recorded.(v) <- Some pairs;
            Obs.Counter.incr c_memo_stores;
            lv
        | sn, ex0, mc0 ->
            let resyn =
              if ctx.opts.resynthesize then
                resyn_test ?ex0 ?mc0 ~snap0:sn ctx v ~target:lv
              else None
            in
            (match resyn with Some _ -> lv | None -> lv + sc.pden)
    in
    let l_new = Int.max l_cur decision in
    (match bound with
    | Some b when l_new > b -> raise Over_bound
    | _ -> ());
    if l_new > l_cur then begin
      sc.slab.(v) <- l_new;
      ctx.last_change.(v) <- ctx.stats.iterations;
      true
    end
    else false
  end

(* Post-convergence pass: record an implementation for every gate, reusing
   the last passing cut found during iteration when it is still valid
   under the converged labels (height within the label, width within K).
   Alongside each implementation it records its provenance — which
   mechanism justified it — for the audit layer. *)
let harvest ctx =
  let { nl; opts; scaled = sc; _ } = ctx in
  let n = Netlist.n nl in
  let impls = Array.make n None in
  let prov = Array.make n None in
  let rat s = Rat.make s sc.pden in
  (* [height]: the implementation root's scaled arrival *)
  let set v impl ~height source =
    impls.(v) <- Some impl;
    prov.(v) <-
      Some
        {
          p_source = source;
          p_cut = (match impl with Cut c -> c | Resyn (_, c) -> c);
          p_height = rat height;
          p_label = rat sc.slab.(v);
          p_iteration = ctx.last_change.(v);
        }
  in
  let set_cut v cut source =
    (* 1 + the latest input arrival; a constant's empty cut gives 1 *)
    let height =
      if Array.length cut = 0 then sc.pden
      else
        Array.fold_left
          (fun acc e -> Int.max acc (arrival sc e))
          (arrival sc cut.(0)) cut
        + sc.pden
    in
    set v (Cut cut) ~height source
  in
  let step v =
    if not (Netlist.is_gate nl v) then true
    else begin
      let target = sc.slab.(v) in
      match ctx.recorded.(v) with
      | Some cut when cut_fits ctx cut ~st:target ->
          Obs.Counter.incr c_harvest_reuse;
          set_cut v cut From_recorded;
          true
      | _ -> (
          let fallback ?ex0 ?mc0 snap0 =
            match
              if opts.resynthesize then resyn_test ?ex0 ?mc0 ~snap0 ctx v ~target
              else None
            with
            | Some (impl, height, h) ->
                set v impl ~height (From_resyn h);
                true
            | None -> false
          in
          match ctx.last.(v) with
          | Some sn when snap_valid ctx sn ~st:target -> (
              match sn.s_verdict with
              | Passed pairs ->
                  set_cut v pairs From_snapshot;
                  true
              | Untested | Failed -> fallback sn)
          | _ -> (
              match kcut_test ctx v ~st:target with
              | _, { s_verdict = Passed pairs; _ }, _ ->
                  set_cut v pairs From_cut_test;
                  true
              | ex, sn, mc0 -> fallback ~ex0:ex ?mc0 sn))
    end
  in
  let ok = ref true in
  for v = 0 to n - 1 do
    if !ok then ok := step v
  done;
  if !ok then Some (impls, prov) else None

let set_cause ctx cause ~round ~gates =
  let stats = ctx.stats in
  stats.cause <- cause;
  stats.cause_round <- round;
  stats.cause_gates <- gates

let same_payload a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y
  | _ -> false

(* One nontrivial SCC: each iteration re-tests every member in sorted
   order, as the paper iterates, until no label changes.  The stopping
   checks run between iterations; the golden label table in
   test/test_seqmap.ml pins the labels, iteration counts and verdicts.

   With PLD on, a round r >= 2 that is uniform (every member rose by the
   same delta > 0 since round r-1), quiet and settled ([ctx.settled];
   each member's ring holding the same snapshots in the same order, and
   its recorded cut and latest snapshot physically the same, as at the
   end of round r-1) repeats forever shifted by delta, so the
   probe is infeasible (doc/ALGORITHM.md, "Periodic stop").  [prev_*]
   hold the end-of-round state of each member, compared and overwritten
   in place. *)
let run_scc ctx bound members ~c ~(feasible : bool ref) =
  let stats = ctx.stats in
  let m = Array.length members in
  let pld_gate = 6 * m in
  let hard_cap = (m * m) + 64 in
  let pld = ctx.opts.pld in
  let track = if pld then m else 0 in
  let prev_lab = Array.make track 0 in
  let prev_ring = Array.make track [] in
  let prev_rec = Array.make track None in
  let prev_last = Array.make track None in
  (* compare the round's end state with the previous round's, and keep
     it for the next comparison *)
  let repeats () =
    let slab = ctx.scaled.slab in
    let delta = slab.(members.(0)) - prev_lab.(0) in
    let same = ref (ctx.settled && delta > 0) in
    for i = 0 to m - 1 do
      let v = members.(i) in
      if
        !same
        && not
             (slab.(v) - prev_lab.(i) = delta
             && List.equal ( == ) ctx.ring.(v) prev_ring.(i)
             && same_payload ctx.recorded.(v) prev_rec.(i)
             && same_payload ctx.last.(v) prev_last.(i))
      then same := false;
      prev_lab.(i) <- slab.(v);
      prev_ring.(i) <- ctx.ring.(v);
      prev_rec.(i) <- ctx.recorded.(v);
      prev_last.(i) <- ctx.last.(v)
    done;
    !same
  in
  let in_scc v = ctx.comp.(v) = c in
  let finish cause round =
    set_cause ctx cause ~round ~gates:m;
    feasible := false
  in
  ctx.scc <- c;
  let converged = ref false in
  let iter = ref 0 in
  (try
     while (not !converged) && !feasible do
       incr iter;
       stats.iterations <- stats.iterations + 1;
       Obs.Counter.incr c_iterations;
       ctx.settled <- pld && !iter >= 2;
       let changed = ref false in
       Array.iter (fun v -> if update ctx bound v then changed := true) members;
       let periodic = pld && repeats () in
       ctx.settled <- false;
       if not !changed then converged := true
       else if periodic then begin
         Obs.Counter.incr c_periodic;
         stats.pld_hits <- stats.pld_hits + 1;
         finish Periodic !iter
       end
       else begin
         if
           pld && !iter >= pld_gate
           && Pld.all_isolated ctx.nl ~slab:ctx.scaled.slab ~p:ctx.scaled.pnum
                ~q:ctx.scaled.pden ~members ~in_scc
         then begin
           stats.pld_hits <- stats.pld_hits + 1;
           finish Pld_gate !iter
         end;
         if !iter > hard_cap then begin
           Obs.Counter.incr c_cap_exits;
           finish Cap !iter
         end
       end
     done
   with Over_bound ->
     ctx.settled <- false;
     Obs.Counter.incr c_divergences;
     finish Diverged !iter);
  ctx.scc <- -1;
  (* a feasible run names its slowest SCC *)
  if !converged && !iter > stats.cause_round then
    set_cause ctx Converged ~round:!iter ~gates:m

let run ?cache ?cutmemo opts nl ~phi =
  Netlist.validate_exn ~k:opts.k nl;
  let n = Netlist.n nl in
  let stats = new_stats () in
  let memo =
    (* the cross-phi memo is the recorded-cut table and the snapshot
       rings shared across runs: validated expansions carry across the
       probes of a ratio search, and [snap_valid] revalidates under the
       current phi before any snapshot is trusted *)
    match cutmemo with
    | Some m when Array.length m.m_cuts = n -> m
    | Some _ -> invalid_arg "Label_engine.run: cut memo sized for another netlist"
    | None -> new_cut_memo nl
  in
  (* SCCs over the full graph *)
  let succ =
    let out = Array.make n [] in
    for v = 0 to n - 1 do
      Array.iter (fun (u, _) -> out.(u) <- v :: out.(u)) (Netlist.fanins nl v)
    done;
    fun v -> out.(v)
  in
  let scc = Graphs.Scc.compute ~n ~succ in
  (* labels start at 0 for PIs and 1 for gates, scaled by q *)
  let pnum = Rat.num phi and pden = Rat.den phi in
  let slab = Array.init n (fun v -> if Netlist.is_gate nl v then pden else 0) in
  let ctx =
    {
      opts;
      stats;
      nl;
      cache;
      karena = Flow.Kcut.new_arena ();
      earena = Expanded.new_arena ();
      bdd =
        (match cache with Some c -> c.bdd | None -> lazy (Bdd.new_man ()));
      scaled = { slab; pnum; pden };
      comp = scc.Graphs.Scc.comp;
      scc = -1;
      settled = false;
      recorded = memo.m_cuts;
      last_change = Array.make n 0;
      ring = memo.m_ring;
      last = memo.m_last;
    }
  in
  let n_gates = List.length (Netlist.gates nl) in
  (* Labels of feasible targets are bounded by the mapping depth (at most
     the gate count); exceeding the bound proves infeasibility.  This
     shortcut is part of the PLD package — the no-PLD baseline reproduces
     the pre-TurboSYN stopping criterion (quadratic iteration cap only). *)
  let bound = if opts.pld then Some ((n_gates + 1) * pden) else None in
  let order = Graphs.Scc.topo_order scc in
  let feasible = ref true in
  Array.iter
    (fun c ->
      if !feasible then begin
        let members =
          Array.of_list
            (List.filter
               (fun v -> Netlist.is_gate nl v)
               (Array.to_list scc.Graphs.Scc.members.(c)))
        in
        let m = Array.length members in
        if m > 0 then
          if Graphs.Scc.is_trivial scc ~succ c then begin
            stats.iterations <- stats.iterations + 1;
            Obs.Counter.incr c_iterations;
            match update ctx bound members.(0) with
            | _ ->
                if stats.cause_round = 0 then
                  set_cause ctx Converged ~round:1 ~gates:1
            | exception Over_bound ->
                Obs.Counter.incr c_divergences;
                set_cause ctx Diverged ~round:1 ~gates:1;
                feasible := false
          end
          else Obs.Span.time s_scc @@ fun () ->
            Array.sort Int.compare members;
            (* Theorem 2 of the paper: a positive loop exists iff after
               6n iterations the SCC is totally isolated in the support
               graph.  The test is only meaningful from 6n on (before
               that, transient equality-supported states of feasible
               targets can look isolated); without PLD only the
               conservative quadratic cap applies (the pre-TurboSYN
               stopping criterion). *)
            run_scc ctx bound members ~c ~feasible
      end)
    order;
  if not !feasible then (Infeasible, stats)
  else
    match harvest ctx with
    | Some (impls, prov) ->
        let labels = Array.map (fun s -> Rat.make s pden) slab in
        (Feasible { labels; impls; prov }, stats)
    | None ->
        (* should not happen: convergence guarantees an implementation *)
        (Infeasible, stats)

(* [cones] starts small: TurboMap runs (no resynthesis) create a cache
   per ratio search and never fill it, and one more 256-bucket array
   there moved mix400 TurboMap's GC pacing (28 -> 26 major collections,
   peak RSS +2 MB).  For the same reason the search's BDD manager is
   created at its first cone, not with the cache. *)
let new_cache () =
  {
    trees = Hashtbl.create 512;
    cones = Hashtbl.create 8;
    bdd = lazy (Bdd.new_man ());
  }
