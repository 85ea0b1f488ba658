(** Request-scoped telemetry contexts.

    A scope captures every counter increment, span activation,
    histogram observation and timeline slice recorded during one unit
    of work — one [/map] request — and folds its metrics into the
    global registries when it closes, returning a per-request
    {!summary} for access logs, [/debug/trace] and flamegraphs.

    A scope is one sink — the representation the global registries
    use — plus an id and resource baselines.  {!run} installs the sink
    as the calling domain's current one, so worker domains never write
    the unsynchronized globals; {!close} merges its counter sums and
    peaks, span totals and histogram buckets into the global sink.  The
    merge is associative, so global totals — and the φ/labels/audit
    documents they gate — are identical with or without a scope
    ([doc/CONCURRENCY.md] §Request scopes).  Slices stay in the
    summary: the global {!Timeline} ring holds only unscoped work's.

    Ownership rules: a scope belongs to the domain that entered {!run};
    never run one scope on two domains at once, never run two scopes on
    one domain at once (a nested {!run} raises), and call {!close}
    outside {!run}, exactly once.  While a scope is open, {!Obs.reset}
    refuses to run. *)

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
(** Per-request resource deltas ([Gc.counters], [Gc.minor_words] and
    [Prelude.Timer.cpu] at open/close).  All fields clamped
    non-negative; GC deltas are differences of the opening domain's
    monotone counters, so a scope left open while others open and close
    in sequence on the same domain bounds the sum of their deltas. *)

type summary = {
  sc_id : string;
  sc_started : float;  (** [Prelude.Timer.wall] at {!create} *)
  sc_finished : float;  (** [Prelude.Timer.wall] at {!close} *)
  sc_counters : (string * int) list;  (** touched counters, sorted *)
  sc_spans : (string * float * int * Span.gc_totals) list;
      (** (name, seconds, completed entries, GC deltas), sorted *)
  sc_histograms : (string * Histogram.snapshot) list;
  sc_slices : Timeline.slice list;
      (** oldest first; at most {!slice_capacity}, the latest kept *)
  sc_dropped_slices : int;  (** slices beyond {!slice_capacity} *)
  sc_resources : resources;
}

val slice_capacity : int
(** How many timeline slices a scope keeps (4096). *)

val create : ?id:string -> unit -> t
(** Open a scope.  [id] is the correlation id ({!id}); when absent (or
    empty) a {!fresh_id} is generated.  Counts as open (blocking
    {!Obs.reset}) until {!close}. *)

val id : t -> string

val run : t -> (unit -> 'a) -> 'a
(** Route this domain's observability hooks — and the ambient
    {!Log.current_request_id} — into the scope for the duration of the
    callback.  May be entered repeatedly before {!close}; entries may
    not overlap across domains.
    @raise Invalid_argument on a closed scope, or when the calling
    domain is already inside a scope's [run]. *)

val close : ?queue_wait:float -> t -> summary
(** Capture the scope's observations as a summary and merge its
    counters, spans and histograms into the global registries (its
    slices stay in the summary).  Call once, on the domain that ran the
    work (the GC resource deltas are per-domain), outside any {!run}.
    The registries are unsynchronized: callers with concurrent scopes
    serialize their closes (the serve layer holds its registry lock).
    [queue_wait] is recorded verbatim (clamped non-negative) in
    [sc_resources].
    @raise Invalid_argument on a double close, or inside a {!run}. *)

val wrap : ?id:string -> (t -> 'a) -> 'a * summary
(** [wrap f] = create, {!run} [f], {!close} — exception-safe (the scope
    is closed, and its partial observations merged, even when [f]
    raises).
    @raise Invalid_argument, opening no scope, when the calling domain
    is already inside a scope's {!run}. *)

val summary_json : summary -> Json.t
(** The summary as a JSON object: [id], [started], [finished],
    [seconds], [counters], [spans], [histograms], [slices],
    [dropped_slices], [resources].  [counters], [spans] (with their
    [gc] objects) and [histograms] render as in the stats document
    ({!Report}). *)

val fresh_id : unit -> string
(** A new 16-hex-char correlation id: process-random prefix plus
    sequence number — unique within the process. *)
