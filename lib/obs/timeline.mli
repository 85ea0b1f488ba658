(** Completed span activations as timeline slices.

    {!Span.exit} records one slice per completed {e outermost} span entry
    while collection is enabled, into a bounded ring (default capacity
    65536; oldest slices are dropped and counted).  {!Report.timeline_json}
    merges these slices with the {!Log} ring's records into a
    Chrome-trace document that loads in Perfetto / [chrome://tracing]. *)

type slice = { name : string; start : float; stop : float }
(** [start]/[stop] are {!Prelude.Timer.wall} seconds (monotonic clock,
    arbitrary epoch — only differences are meaningful). *)

val record : string -> start:float -> stop:float -> unit
(** No-op while collection is disabled or the capacity is 0. *)

val slices : unit -> slice list
(** Oldest first. *)

val length : unit -> int
val dropped : unit -> int

val set_capacity : int -> unit
(** @raise Invalid_argument on a negative capacity. *)

val clear : unit -> unit
(** Drop all slices and zero the dropped counter (part of {!Obs.reset}). *)

(** {1 Request-scope shards}

    The slice ring is a plain [Queue]; inside an {!Obs.Scope}, slices
    buffer in a domain-local queue (same capacity bound) that replays
    into the ring when the scope closes.  Use {!Obs.Scope} rather than
    these directly. *)

type shard

val new_shard : unit -> shard

val set_shard : shard option -> unit
(** Route this domain's slices into the shard ([Some]), or back to the
    global ring ([None]). *)

val merge_shard : shard -> unit
(** Replay the shard's slices into the global ring, oldest first,
    re-applying the capacity bound, and empty the shard. *)

val shard_slices : shard -> slice list
(** The shard's buffered slices, oldest first, without merging or
    emptying it. *)

val shard_dropped : shard -> int
