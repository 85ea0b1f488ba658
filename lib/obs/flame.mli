(** Span timelines as flamegraph.pl folded stacks.

    [flamegraph.pl] (and every compatible renderer: speedscope,
    inferno, d3-flame-graph) consumes "folded stacks": one line per
    distinct call stack, frames joined with [';'], followed by an
    integer weight.  This module folds {!Timeline} slices — whole-run
    rings, per-request {!Scope} summaries, or the ["X"] events of a
    Chrome-trace document — into that format, weighting each stack by
    its SELF time in microseconds (duration minus direct children).

    Call nesting is recovered from interval containment; slices merged
    from concurrent request scopes that overlap without nesting fold as
    siblings with self time clamped at zero, so the output stays
    well-formed (see [doc/OBSERVABILITY.md] §Flamegraphs). *)

val fold_slices : Timeline.slice list -> (string * float) list
(** Folded stacks: (frames joined with [';'], outermost first; self
    seconds), sorted by stack, zero-self stacks included.  Frame names
    have [';'], [' '] and newlines replaced by ['_']. *)

val fold_timeline : unit -> (string * float) list
(** {!fold_slices} over the whole-run {!Timeline} ring, read in place
    from its columns: no slice record or list is built. *)

val to_string : (string * float) list -> string
(** The folded-stack text: one ["stack weight\n"] line per entry with
    self time rounded to integer microseconds; stacks rounding to zero
    weight are omitted (flamegraph.pl ignores them anyway). *)

val of_slices : Timeline.slice list -> string
(** [to_string (fold_slices slices)]. *)

val of_timeline_json : Json.t -> ((string * float) list, string) result
(** {!fold_slices} over a Chrome-trace document (the benchmark's
    [.perfbench/trace-*.json] files): every ["X"] complete event,
    [ts]/[dur] microseconds back to seconds, nesting only within its
    ([pid], [tid]) thread; other events are ignored. *)

val write : string -> string -> unit
(** [write dest text] writes to the file [dest], or stdout for ["-"]. *)
