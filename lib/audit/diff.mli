(** Regression gating over two stats documents ([turbosyn-stats/1],
    [/2] or [/3]).

    Counters, span {e entry counts}, and histogram {e observation counts}
    are deterministic functions of the input and the algorithm, so they
    gate: the current value fails when it exceeds [base * ratio + slack].
    Span {e seconds}, histogram sums and quantiles, and GC totals are
    machine-dependent and never gate (they are simply not compared).  A
    counter present in the baseline but absent from the current document
    also fails — renames must update the committed baseline deliberately.

    Version skew: a baseline may be {e older} than the current document
    (a v1 baseline gates a v2 run; the absent histograms section simply
    contributes no items) but never newer. *)

type thresholds = { ratio : float; slack : int }

val default_thresholds : thresholds
(** [ratio = 1.25], [slack = 16]: a quarter more work plus a small
    absolute allowance for tiny baselines. *)

type item = {
  name : string;
  base : int;
  cur : int;
  limit : int;  (** [base * ratio + slack] under the item's thresholds *)
  regressed : bool;  (** [cur > limit] *)
}

type t = {
  counters : item list;  (** one per baseline counter *)
  entries : item list;  (** one per baseline span, comparing entry counts *)
  histograms : item list;
      (** one per baseline histogram, comparing observation counts *)
  missing : string list;  (** in the baseline, absent from current *)
  added : string list;  (** in current, absent from the baseline (no gate) *)
  ok : bool;
}

val diff :
  ?thresholds:thresholds ->
  ?overrides:(string * thresholds) list ->
  base:Obs.Json.t ->
  cur:Obs.Json.t ->
  unit ->
  (t, string) result
(** [overrides] maps counter/span/histogram names to their own thresholds
    (e.g. a noisy counter can be given more headroom).  [Error] on
    documents without a known schema, or when the baseline's schema is
    newer than the current document's. *)

val render : t -> string
(** Human-readable summary: one line per changed or regressed item,
    terminated by an OK/REGRESSED verdict line. *)
