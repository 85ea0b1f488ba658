(** Completed span activations as timeline slices.

    {!Span.exit} records one slice per completed {e outermost} span entry
    while collection is enabled, into a bounded ring (default capacity
    65536; oldest slices are dropped and counted).  Only code outside a
    request {!Obs.Scope} feeds this ring ([map --timeline], [flame -w]):
    a scope keeps its own slices in its summary.  {!Report.timeline_json}
    merges these slices with the {!Log} ring's records into a
    Chrome-trace document that loads in Perfetto / [chrome://tracing]. *)

type slice = Sink.slice = { name : string; start : float; stop : float }
(** [start]/[stop] are {!Prelude.Timer.wall} seconds (monotonic clock,
    arbitrary epoch — only differences are meaningful). *)

val record : string -> start:float -> stop:float -> unit
(** Record into the current sink: the ring, or the enclosing scope's
    slices.  No-op while collection is disabled or the capacity is 0. *)

val slices : unit -> slice list
(** Oldest first. *)

val length : unit -> int
val dropped : unit -> int

val set_capacity : int -> unit
(** The ring's capacity (a scope's is {!Obs.Scope.slice_capacity}).
    @raise Invalid_argument on a negative capacity. *)

val clear : unit -> unit
(** Drop all slices and zero the dropped counter (part of {!Obs.reset}). *)
