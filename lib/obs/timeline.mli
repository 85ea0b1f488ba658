(** Completed span activations as timeline slices.

    {!Span.exit} records one slice per completed {e outermost} span entry
    while collection is enabled, into the current sink's bounded ring
    (oldest slices are dropped and counted).  The global ring has
    capacity 0, so unscoped work records nothing until a caller sets
    one: [flame -w] keeps every slice of a whole run.  A request
    {!Obs.Scope} keeps its own slices in its summary.  {!Flame} folds
    slices into folded stacks. *)

type slice = Sink.slice = { name : string; start : float; stop : float }
(** [start]/[stop] are {!Prelude.Timer.wall} seconds (monotonic clock,
    arbitrary epoch — only differences are meaningful). *)

val record : string -> start:float -> stop:float -> unit
(** Record into the current sink: the ring, or the enclosing scope's
    slices.  No-op while collection is disabled or the capacity is 0. *)

val slices : unit -> slice list
(** The global ring's slices, oldest first. *)

val set_capacity : int -> unit
(** The global ring's capacity, 0 by default (a scope's is
    {!Obs.Scope.slice_capacity}); lowering it drops the oldest slices.
    @raise Invalid_argument on a negative capacity. *)
