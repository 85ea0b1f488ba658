(** Nestable phase timers with a process-global registry.

    A span accumulates wall-clock time over every [enter]/[exit] pair.
    Distinct spans nest freely (a ratio-search probe contains SCC
    rounds, which contain flow tests and decompositions); a span that
    re-enters {e itself} recursively accounts only its outermost
    activation, so recursion never double-counts.

    As with counters, all mutation is gated on {!Obs.set_enabled}:
    disabled spans cost one load and one branch, and [time] calls the
    thunk directly without installing an exception handler.  Inside an
    {!Obs.Scope}, activations run on the scope's own copy of the span
    (own depth, own GC deltas) and fold into the registry when the
    scope closes.

    Toggling the global switch while a span is open loses that
    activation (the [exit] guard keeps the depth consistent); enable
    observability before the phase you want timed.

    The registered names form the [spans] object of the stats schema;
    [doc/OBSERVABILITY.md] documents each one. *)

type gc_totals = Sink.gc_totals = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** words promoted minor -> major *)
  major_words : float;  (** major-heap words, promoted ones included *)
}
(** Allocation deltas accumulated over a span's completed outermost
    entries: what the phase allocated, not what the whole process has.
    Exact, and the entering domain's own: another domain's allocation
    never counts. *)

type t
(** A registered span.  Physically equal for equal names. *)

val make : string -> t
(** [make name] returns the span registered under [name], creating it on
    first use.  Dotted lower-case names ([subsystem.phase]) by
    convention. *)

val seconds : t -> float
(** Total wall seconds accumulated over completed outermost entries. *)

val count : t -> int
(** Number of completed outermost entries. *)

val gc_totals : t -> gc_totals
(** Allocation deltas accumulated over completed outermost entries.
    Read with [Gc.counters] and [Gc.minor_words] at the outermost
    [enter]/[exit] pair, so nested activations and other live spans
    attribute their allocation to every span open around them. *)

val enter : t -> unit
(** Start (or nest into) the span.  No-op while observability is
    disabled. *)

val exit : t -> unit
(** Leave the span; the outermost exit accumulates the elapsed time.
    A spurious exit (depth already zero) is ignored. *)

val time : t -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()] inside the span, exception-safely. *)

val all_full : unit -> (string * float * int * gc_totals) list
(** Every registered span as [(name, seconds, entries, GC totals)],
    sorted by name. *)
