(** Prometheus text exposition format (0.0.4): a renderer over the
    metric registries.

    The renderer prefixes every family with [turbosyn_] and maps
    registries as follows: counters become [_total] counter families;
    gauges become gauge families; spans become labeled families
    ([turbosyn_phase_seconds_total{phase="..."}] and friends, including
    the per-phase GC totals); histograms become cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count]. *)

type sample = { labels : (string * string) list; value : float }

type family = {
  fname : string;  (** dotted name; sanitized and prefixed by the renderer *)
  fhelp : string;
  ftype : [ `Counter | `Gauge ];
  samples : sample list;
}

val render :
  ?exclude_prefixes:string list -> ?extra:family list -> unit -> string
(** Render a full scrape body.  [extra] appends caller-maintained
    families (e.g. the serve layer's labeled request counters);
    [exclude_prefixes] suppresses the generic one-family-per-counter
    rendering for counter-name prefixes a caller re-renders through
    [extra] instead, so one underlying registry counter never produces
    two exposition series. *)

val counter_values : string -> (string * float) list
(** Samples of counter-typed families in a body {!render} produced,
    keyed by their literal series text (name plus label block, as
    written) — the stable key for monotonicity checks across two
    scrapes of the same process.  An unlabeled series' key is its
    metric name. *)

val sanitize : string -> string
(** A dotted registry name as a metric name: [.] and the like become [_]. *)
