(** Observability: counters, phase timers and structured events for the
    synthesis pipeline.

    The paper's evaluation is about {e internal} algorithm behavior —
    how many flow tests PLD avoids, how often decomposition rescues a
    label the cut test rejects, how large expanded circuits get.  This
    module makes those quantities measurable: hot paths bump
    {!Counter}s, phases run inside {!Span}s, and notable occurrences
    (each ratio-search probe, each synthesis result) are {!Log}ged at
    [debug] level.
    {!Report.stats_json} assembles everything into the versioned JSON
    document described in [doc/OBSERVABILITY.md].

    Everything is disabled by default.  While disabled, every hook is a
    single load-and-branch no-op, so instrumented code pays (well under
    2% on the benchmark tables) for the hooks it does not use.  Enable
    collection around the work you want measured:

    {[
      Obs.set_enabled true;
      Obs.reset ();
      let r = Turbosyn.Synth.run `Turbosyn nl in
      Obs.Report.write_stats "-";
      Obs.set_enabled false
    ]}

    Counters, spans, histograms and timeline slices land in a {e sink}:
    the process-global one, which every reader renders, or a request
    {!Scope}'s own.  One domain-local key names the calling domain's
    current sink, so every hook takes the same path either way.  The
    global sink is unsynchronized: single-domain code (the CLI, the
    benches) writes it directly, and work on a worker domain runs
    inside a scope, whose sink is merged into the global one when it
    closes ([doc/CONCURRENCY.md]).  {!Log} serializes its own writes. *)

module Json = Json
module Counter = Counter
module Gauge = Gauge
module Histogram = Histogram
module Span = Span
module Timeline = Timeline
module Report = Report
module Prometheus = Prometheus
module Scope = Scope
module Log = Log
module Flame = Flame

val set_enabled : bool -> unit
(** Master switch for metric collection ({!Counter}, {!Gauge},
    {!Histogram}, {!Span}, {!Timeline}).  Off by default.  {!Log} is
    gated on its own level threshold instead. *)

val enabled : unit -> bool
(** Current state of the master switch. *)

val reset : unit -> unit
(** Reset the global sink — zero every counter, histogram and span
    (including GC totals), clear the timeline ring — and the gauges.
    Call between measured runs; registration is preserved.  Nothing in the reset can fail, so the state is never
    partially cleared.  A span that is {e entered} when reset runs
    loses its in-flight activation: its pending [exit]s are ignored
    (depth was zeroed) and [entries] counts only activations that both
    started and completed after the reset.

    @raise Invalid_argument while any {!Scope} is open (created and not
    yet closed): a reset then would race the domain running it and
    silently lose its un-merged observations, so it is rejected
    instead.  Close the scope first. *)
