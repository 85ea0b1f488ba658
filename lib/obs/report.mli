(** Assembly of the versioned stats report.

    The report is a single JSON object; [doc/OBSERVABILITY.md] is the
    normative description of the schema.  Version [turbosyn-stats/3]:

    {v
    {
      "schema":     "turbosyn-stats/3",
      "enabled":    true,
      ...caller-supplied extra members (e.g. "run")...,
      "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <float>, ... },
      "spans":      { "<name>": { "seconds": <float>, "entries": <int>,
                                  "gc": { "minor_words": <float>,
                                          "promoted_words": <float>,
                                          "major_words": <float> } }, ... },
      "histograms": { "<name>": { "count": <int>, "sum": <float>,
                                  "min": <float|null>, "max": <float|null>,
                                  "p50": <float>, "p90": <float>,
                                  "p99": <float>,
                                  "buckets": [[<idx>, <count>], ...] }, ... }
    }
    v}

    Version 2 read process-wide GC figures and had a fourth, always-zero
    [gc] member; version 1 lacked [gauges], [histograms] and [gc].
    {!Audit.Diff} still accepts both as baselines. *)

val schema_version : string
(** ["turbosyn-stats/3"].  Bumped on any incompatible change to the
    report layout or to the meaning of a documented counter/span. *)

val counters_json : (string * int) list -> Json.t
(** A [counters] object, e.g. of {!Counter.all} or a scope summary's
    [sc_counters]. *)

val spans_json : (string * float * int * Span.gc_totals) list -> Json.t
(** A [spans] object (with GC totals), e.g. of {!Span.all_full}. *)

val histograms_json : (string * Histogram.snapshot) list -> Json.t
(** A [histograms] object, e.g. of {!Histogram.all}. *)

val stats_json : ?extra:(string * Json.t) list -> unit -> Json.t
(** The full report.  [extra] members (e.g. a [run] description) are
    spliced between the schema header and the metric objects; their
    names must not collide with the reserved members [schema],
    [enabled], [counters], [gauges], [spans], [histograms]. *)

val write_stats : ?extra:(string * Json.t) list -> string -> unit
(** [write_stats dest] pretty-prints {!stats_json} to the file [dest],
    or to stdout when [dest] is ["-"]. *)
