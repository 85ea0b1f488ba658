(** The mapping pipeline as a concurrent HTTP service.

    A dependency-free HTTP/1.1 serving stack over [Unix]:

    - [POST /map] (or [GET /map?circuit=...&k=...&algo=...]) runs a
      mapping request — JSON body
      [{"circuit": "bbara", "k": 5, "algo": "turbosyn"}] — and answers
      a deterministic [turbosyn-serve/1] document (phi, clock period,
      latency, LUTs, probes, and the per-signal labels; no timings).
    - [GET /metrics] answers a Prometheus text-exposition scrape of the
      {!Obs} registries plus the server's own request counters and
      pool/cache gauges.
    - [GET /healthz] answers a JSON liveness document:
      [{"status": "ok", "workers": ..., "workers_busy": ...,
      "queue_depth": ..., "queue_capacity": ..., "cache_entries": ...,
      "cache_capacity": ..., "shed_total": ...}].
    - [GET /debug/requests] answers the server's recent-request ring
      (its last 256 requests; each server in a process keeps its own,
      as it does its [/debug/slo] exemplars)
      ([turbosyn-debug-requests/1]): id, route, status, outcome, cache
      marker, wall-clock timings and per-phase span seconds, newest
      first, with the count of timeline slices the ring retains
      ([retained_slices]).  A [/map] entry enters the ring before its
      response is written, so its [seconds] run from accept to the
      response being ready; other routes' run to the response written.
    - [GET /debug/trace/<id>] answers the retained per-request telemetry
      of one ring entry ([turbosyn-debug-trace/1] with the full
      {!Obs.Scope.summary_json}); [?format=chrome] renders the request's
      timeline slices as a Chrome-trace document, [?format=folded] as
      flamegraph.pl folded stacks.  [404] when the id has been evicted
      from the ring (or never existed).
    - [GET /debug/slo] answers the burn-rate evaluation of the
      configured objectives ([turbosyn-slo/1]): per objective, the
      latency/error verdicts of {!Obs.Slo.verdict_json}, the flat
      histogram family the numbers were computed from (so they
      reproduce from a [/metrics] scrape), and the slowest-N request
      ids as exemplars linking into [/debug/trace/<id>].  The same
      verdicts are exposed on the scrape as [turbosyn_slo_*] gauge
      families.

    {b Concurrency.}  {!run} runs the accept lane on the calling domain
    and spawns [workers] worker domains.  The accept lane owns the listen socket,
    parses request envelopes (a client that has not sent its whole
    request within 5 s gets [408], counted under route [malformed]),
    answers the cheap routes inline, and
    feeds [/map] jobs to a bounded {!Prelude.Bqueue}; worker domains
    drain the queue, run the pipeline, and write the responses.  The
    [/map] documents are byte-identical to a direct
    {!Turbosyn.Synth.run} for every worker count
    ([doc/CONCURRENCY.md] §Serving).

    {b Admission control.}  When the queue is full (or [queue_depth] is
    [0]), [/map] requests are shed with [429 Too Many Requests] and a
    [Retry-After] header instead of queueing unboundedly; [/healthz]
    and [/metrics] stay answerable from the accept lane under full
    overload.

    {b Result cache.}  [/map] responses are cached in an LRU of
    [cache_entries] rendered bodies, keyed by the canonical circuit
    digest ({!Circuit.Canon.digest} — invariant under wire renaming and
    declaration order) plus [(algo, k)], with single-flight
    deduplication: concurrent identical submissions compute once.
    Every [/map] response carries an [X-Cache: hit|miss|bypass] header
    ([bypass] when the cache is disabled).

    {b Correlation ids.}  Every request carries a correlation id: the
    client's [X-Request-Id] header when present (up to 64 chars of
    [[A-Za-z0-9_-]]), else the trace-id field of a W3C [traceparent]
    header, else a server-generated {!Obs.Scope.fresh_id}.  Every
    response echoes it back as [X-Request-Id], every access-log line
    ([serve.access], plus [serve.slow] over the threshold) carries it as
    [request_id], and [/debug/trace/<id>] retrieves by it.

    Each [/map] request runs inside an {!Obs.Scope} keyed by its id on
    its worker domain; scope closes (and every other direct registry
    touch) serialize behind one mutex, so scrape counters stay monotone
    and φ/labels/stats documents are byte-identical to unscoped runs. *)

type t

val create :
  ?port:int ->
  ?slow_seconds:float ->
  ?workers:int ->
  ?queue_depth:int ->
  ?cache_entries:int ->
  ?slos:Obs.Slo.objective list ->
  unit ->
  t
(** Bind and listen on [127.0.0.1:port].  [port] defaults to [0]: the
    kernel picks an ephemeral port, readable via {!port}.
    [slow_seconds] (default [1.0]) is the threshold above which a
    request additionally logs a [serve.slow] warning.  [workers]
    (default: host-derived, between 1 and 4) is the number of /map
    worker domains, clamped to at least 1.  [queue_depth] (default
    [64]) bounds the jobs admitted beyond the in-flight ones; [0]
    sheds every /map request — useful for tests.  [cache_entries]
    (default [256]) is the LRU capacity of the result cache; [0]
    disables caching.  [slos] (default none) are the objectives
    evaluated by [/debug/slo] and the [turbosyn_slo_*] scrape families.
    Raises [Unix.Unix_error] when binding fails (e.g. port in use),
    [Invalid_argument] on negative [queue_depth]/[cache_entries]. *)

val port : t -> int

val workers : t -> int
(** The resolved worker-domain count. *)

val run : t -> unit
(** Serve until {!stop}.  Blocks the calling thread (it runs the
    accept lane); run it in a [Domain] (as the tests do) to drive
    requests from the same process. *)

val stop : t -> unit
(** Close the listen socket, waking the blocked accept.  Queued and
    in-flight /map jobs complete before {!run} returns (graceful
    drain). *)

(** {1 Request plumbing, exposed for tests} *)

val result_json :
  circuit:string -> k:int -> Turbosyn.Synth.result -> Obs.Json.t
(** The deterministic response renderer shared by the serve path, the
    cached bytes, and the byte-identity test: rendering a direct
    {!Turbosyn.Synth.run} result through it must equal the served body,
    for every worker count, cache hit or miss. *)

val map_response :
  circuit:string ->
  k:int ->
  algo:Turbosyn.Synth.algo ->
  (Obs.Json.t, string) result
(** Resolve the circuit, run the mapping (uncached), render the
    response; [Error] on unknown circuits or out-of-range [k]. *)

val header_end : Buffer.t -> from:int -> int option
(** The offset just past the first ["\r\n\r\n"] of the buffer that
    starts at or after [from] (clamped at 0), or [None].  A reader that
    resumes each scan at [length - 3] of the buffer it last scanned gets
    the answer of one scan from 0, under any split of the input into
    reads. *)

val cache_key : Circuit.Netlist.t -> k:int -> algo:Turbosyn.Synth.algo -> string
(** The result-cache key: {!Circuit.Canon.digest} plus algo and [k]. *)

val request_id_of_headers : (string * string) list -> string
(** The correlation id for a request with the given (lower-cased)
    header assoc: sanitized [x-request-id], else [traceparent] trace-id,
    else a fresh id. *)

val outcome_of_status : int -> string
(** ["served"] below 400, ["shed"] for 429, ["rejected"] for other 4xx,
    ["failed"] for 5xx.  (The serve paths additionally report
    ["cached"] for cache-served successes.) *)
