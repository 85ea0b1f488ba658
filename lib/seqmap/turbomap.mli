(** The TurboMap flow (and, with resynthesis enabled in the options, the
    label-computation core of TurboSYN): binary search for the minimum MDR
    ratio, mapping generation, and clock-period realization by retiming +
    pipelining.

    The search is exact: the minimum MDR ratio of a mapping solution is a
    rational with denominator bounded by the circuit's total register
    count (mapping preserves cycle register counts), so a Stern–Brocot
    descent over label-computation feasibility probes returns the true
    minimum ratio; the paper's upper bound UB is the MDR ratio of the
    trivial mapping (one LUT per gate). *)

open Prelude

type report = {
  phi : Rat.t;  (** minimum MDR ratio over mapping solutions *)
  luts : int;
  mapped_mdr : Graphs.Cycle_ratio.result;  (** MDR of the generated netlist *)
  clock_period : int;  (** achieved by retiming + pipelining the result *)
  probes : int;  (** feasibility probes during the binary search *)
  stats : Label_engine.stats;  (** accumulated over all probes *)
  labels : Rat.t array;  (** converged labels of the final run at [phi] *)
  prov : Label_engine.prov option array;
      (** per-gate implementation provenance of the final run (defined
          exactly on gates of the {e source} netlist) *)
}

val minimum_ratio :
  ?cache:Label_engine.resyn_cache ->
  ?cutmemo:Label_engine.cut_memo ->
  ?phi_max_den:int ->
  ?jobs:int ->
  Label_engine.options -> Circuit.Netlist.t -> Rat.t * int * Label_engine.stats
(** [(phi, probes, stats)].  [phi = 0] for acyclic circuits (any clock
    period is reachable by pipelining alone).  As in the paper, targets are
    searched in [\[1, UB\]]: ratios below 1 cannot improve the realizable
    clock period (its floor is one LUT delay).  [phi_max_den] caps the
    denominators explored by the exact search (the default explores every
    denominator up to the circuit's total register count; achievable loop
    ratios have denominators equal to loop register counts, which are small
    in practice, and probes very close to the optimum are the slowest, so a
    modest cap — the top-level flow uses 24 — trades a sliver of exactness
    for a large speedup).

    Each φ is probed once: the search revisits points it has already
    decided, and those answers come from a memo of past verdicts.

    [cutmemo], when given, carries passing cuts across probes
    ([doc/PERF.md], "The two-layer cut engine").  A memo hit is sound
    (a recorded cut is a real K-cut) but not exact: it can justify a
    label that a fresh expansion, bounded in depth, cannot reach.  So a
    later run handed the same memo may return lower labels than a fresh
    run (dk16 K=5 TurboMap: 26 gates).  On the 96 Table-1 jobs (TurboMap
    and TurboSYN, K = 4, 5, 6) the returned [phi] is the same with and
    without the memo.

    [jobs] accepts only [1] and raises [Invalid_argument] for any other
    value: the benchmark harness still passes it, and it goes with the
    next benchmark change. *)

val map :
  ?options:Label_engine.options ->
  ?phi_max_den:int ->
  Circuit.Netlist.t ->
  k:int ->
  Circuit.Netlist.t * report
(** Full flow; the result is a K-LUT netlist, I/O-equivalent to the input
    from reset (register positions may differ only through the LUT-input
    weights, which the simulator interprets identically).
    [options] defaults to [Label_engine.default_options ~k] — plain
    TurboMap.  @raise Invalid_argument on non-K-bounded input. *)

val map_full :
  ?options:Label_engine.options ->
  ?phi_max_den:int ->
  Circuit.Netlist.t ->
  k:int ->
  Circuit.Netlist.t * report * Label_engine.impl option array
(** Like [map], also returning the per-gate implementations the mapping was
    generated from (for post passes such as label relaxation). *)

val realize :
  Circuit.Netlist.t -> (Circuit.Netlist.t * int * int) option
(** Retime + pipeline a mapped netlist to its loop-bound clock period:
    [(circuit, period, latency)]; [None] on a combinational loop. *)

val realize_full :
  Circuit.Netlist.t -> (Circuit.Netlist.t * int * int * int array) option
(** Like {!realize}, also returning the lag vector [r] (the legal
    retiming/pipelining register assignment, indexed by node of the
    {e mapped} netlist) that achieves the period — the audit layer's
    upper-bound witness. *)
