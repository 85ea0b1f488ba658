(** Wall-clock sampling profiler.

    While attached, a tick thread snapshots every domain's live
    {!Span} stack each [interval] seconds and aggregates the snapshots
    into folded stacks ([doc/PROFILING.md]).  No signals: {!Span}
    maintains a per-domain frame stack the sampler reads racily but
    memory-safely, so attaching changes no observable output of the
    profiled program — φ, labels, audit documents and the metrics
    registries are byte-identical with the sampler on or off (gated in
    [test/test_audit.ml]).

    The profiler keeps all of its state privately (one internal mutex);
    it never writes the unsynchronized Obs registries.  Servers surface
    {!samples}/{!dropped}/{!overhead_seconds} as [prof.*] series at
    scrape time. *)

val attach : ?interval:float -> unit -> unit
(** Start sampling every [interval] seconds (default 0.01).  Previously
    accumulated data is retained (call {!reset} for a fresh run).
    While attached, {!Obs.reset} refuses.
    @raise Invalid_argument if already attached or [interval <= 0]. *)

val detach : unit -> unit
(** Stop the sampler and join its thread; accumulated data stays
    readable.  No-op when not attached. *)

val attached : unit -> bool

val interval : unit -> float
(** The configured tick interval in seconds (last [attach]'s, or the
    default before any attach). *)

val reset : unit -> unit
(** Drop accumulated samples and zero all counters.  Independent of
    {!Obs.reset}, which refuses while the sampler is attached. *)

(** {1 Accounting} *)

val samples : unit -> int
(** Stack snapshots recorded (one per tick per domain with at least one
    open span). *)

val dropped : unit -> int
(** Raw samples evicted from the bounded Chrome-trace ring.  Their
    folded aggregate is retained; only per-sample timing detail is
    lost. *)

val overhead_seconds : unit -> float
(** Wall seconds the tick thread spent sampling (sleep excluded) — the
    profiler's own cost. *)

(** {1 Route attribution} *)

val set_route : string -> unit
(** Tag subsequent samples taken on the calling domain with a route
    ([""] clears).  The serve worker sets this around each request. *)

val with_route : string -> (unit -> 'a) -> 'a
(** {!set_route} scoped to [f], restoring the previous tag. *)

val routes : unit -> string list
(** Distinct non-empty route tags seen in accumulated samples. *)

(** {1 Output} *)

val folded : ?route:string -> unit -> (string * float) list
(** Folded stacks (frames joined with [';'], outermost first, names
    {!Flame.clean_frame}-sanitized at sample time; sampled seconds =
    count × interval), sorted by stack.  [?route] filters to one route
    tag; omitted = whole process. *)

val folded_text : ?route:string -> unit -> string
(** {!Flame.to_string} of {!folded}: flamegraph.pl-ready text, weights
    in integer microseconds. *)

val top_self : ?route:string -> unit -> (string * float) list
(** Self seconds per frame (a sample's time belongs to its deepest
    frame), heaviest first. *)

val slices : ?route:string -> unit -> Timeline.slice list
(** The raw-sample ring as Timeline slices (each sample's frames nest
    over one [interval]-wide window) — feed to
    {!Report.timeline_json} for a Chrome-trace rendering. *)
