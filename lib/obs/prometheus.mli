(** Prometheus text exposition format (0.0.4): a renderer over the
    metric registries and a parser for the sample lines of a scrape.

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
(** Samples of counter-typed families, keyed by their series text (name
    plus label block) — the stable key for monotonicity checks across
    two scrapes of the same process. *)

val sanitize : string -> string
(** A dotted registry name as a metric name: [.] and the like become [_]. *)

val valid_name : string -> bool
(** A legal metric or label name, [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

type parsed_sample = {
  p_name : string;  (** metric name as written, suffixes included *)
  p_labels : (string * string) list;  (** unescaped, in written order *)
  p_value : float;
}

val parse_sample : line_no:int -> string -> (parsed_sample, string) result
(** Parse one sample line, [name{k="v",...} value [timestamp]]; the error
    names [line_no] and the first fault (name, quoting, escape, value). *)

val family_of : (string, string) Hashtbl.t -> string -> string
(** The family of a sample name, given the [TYPE]s seen so far (name to
    type): a histogram's [_bucket]/[_sum]/[_count] map to its base name. *)
