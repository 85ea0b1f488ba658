(** Point-in-time values: pool sizes, in-flight request counts.

    Unlike {!Counter}, gauges may go down.  Mutation is gated on the
    global observability switch; [make] is idempotent per name. *)

type t

val make : string -> t
val set_int : t -> int -> unit

val all : unit -> (string * float) list
(** All registered gauges, sorted by name. *)

val reset_all : unit -> unit
