(** Request-scoped telemetry contexts.

    A scope captures every counter increment, span activation,
    histogram observation and timeline slice recorded during one unit
    of work — one [/map] request, one CLI run — and folds it into the
    global registries when it closes, returning a per-request
    {!summary} for access logs, [/debug/trace] and flamegraphs.

    Built on {!Shard}: the scope owns one shard, installed on the
    serving domain while {!run} is active.  A shard wrapped inside the
    scope merges into the scope (the domain-local sink), and the
    scope's own merge reaches the registries on {!close}.  Counter
    sums, peaks and histogram buckets are associative under this
    nesting, so global totals — and the φ/labels/audit documents they
    gate — are identical with or without a scope
    ([doc/CONCURRENCY.md] §Request scopes).

    Ownership rules: a scope belongs to the domain that entered {!run};
    never run one scope on two domains at once, and call {!close}
    outside {!run}, exactly once.  While a scope is open, {!Obs.reset}
    refuses to run (it holds a live shard). *)

type t

type resources = {
  r_cpu_seconds : float;
      (** process CPU-seconds delta over the scope (exact for a lone
          request, an upper bound under concurrent workers) *)
  r_minor_words : float;  (** opening domain's own allocation *)
  r_promoted_words : float;
  r_major_words : float;
  r_queue_wait : float;  (** supplied by the caller at {!close}; 0 when
                             unknown *)
}
(** Per-request resource deltas ([Gc.quick_stat] + [Prelude.Timer.cpu]
    at open/close).  All fields clamped non-negative; GC deltas are
    monotone-counter differences, so a parent scope's delta bounds the
    sum of its sequential children's. *)

val zero_resources : resources

type summary = {
  sc_id : string;
  sc_started : float;  (** [Prelude.Timer.wall] at {!create} *)
  sc_finished : float;  (** [Prelude.Timer.wall] at {!close} *)
  sc_counters : (string * int) list;  (** touched counters, sorted *)
  sc_spans : (string * float * int) list;
      (** (name, seconds, completed entries), sorted *)
  sc_histograms : (string * Histogram.snapshot) list;
  sc_slices : Timeline.slice list;  (** oldest first *)
  sc_dropped_slices : int;
  sc_resources : resources;
}

val create : ?id:string -> unit -> t
(** Open a scope.  [id] is the correlation id ({!id}); when absent (or
    empty) a {!fresh_id} is generated.  Counts as a live shard until
    {!close}. *)

val id : t -> string
val started : t -> float

val run : t -> (unit -> 'a) -> 'a
(** Route this domain's observability hooks — and the ambient
    {!Log.current_request_id} — into the scope for the duration of the
    callback.  May be entered repeatedly before {!close}; entries may
    not overlap across domains.
    @raise Invalid_argument on a closed scope. *)

val close : ?queue_wait:float -> t -> summary
(** Capture the scope's local observations as a summary, fold them into
    the global registries (or the enclosing scope's), and release the
    shard.  Call outside {!run}, once, on the domain that ran the work
    (the GC resource deltas are per-domain).  [queue_wait] is recorded
    verbatim (clamped non-negative) in [sc_resources].
    @raise Invalid_argument on a double close. *)

val wrap : ?id:string -> (t -> 'a) -> 'a * summary
(** [wrap f] = create, {!run} [f], {!close} — exception-safe (the scope
    is closed, and its partial observations merged, even when [f]
    raises). *)

val span_seconds : summary -> string -> float option
(** Seconds one span accumulated inside the scope, if it ran. *)

val summary_json : summary -> Json.t
(** The summary as a JSON object: [id], [started], [finished],
    [seconds], [counters], [spans], [histograms], [slices],
    [dropped_slices], [resources]. *)

val fresh_id : unit -> string
(** A new 16-hex-char correlation id: process-random prefix plus
    sequence number — unique within the process. *)
