(** Named monotonic counters with a process-global registry.

    A counter is created once at module-initialization time (creation is
    idempotent per name) and bumped from hot paths.  Every mutation is
    gated on the global switch ({!Obs.set_enabled}): when observability is
    off, [incr]/[add]/[record_max] reduce to one load and one branch — no
    allocation, no hashing.  Inside an {!Obs.Scope}, mutations land in
    the scope's sink and reach the registry when the scope closes
    ([adds] merge by sum, [record_max] by max).

    The registered names form the [counters] object of the stats schema;
    [doc/OBSERVABILITY.md] documents each one. *)

type t
(** A registered counter.  Physically equal for equal names. *)

val make : string -> t
(** [make name] returns the counter registered under [name], creating it
    at zero on first use.  Dotted lower-case names ([subsystem.metric])
    by convention. *)

val value : t -> int
(** Current value; readable whether or not observability is enabled. *)

val incr : t -> unit
(** Add one.  No-op while observability is disabled. *)

val add : t -> int -> unit
(** Add a non-negative amount.  No-op while observability is disabled.
    @raise Invalid_argument on a negative amount. *)

val record_max : t -> int -> unit
(** High-water gauge: raise the counter to the given value if it is
    larger (used for peaks, e.g. BDD node counts).  No-op while
    observability is disabled.  A counter is either added to or
    recorded; its value is the larger of its sum and its peak. *)

val find : string -> int option
(** Look a counter up by name; [None] if never created. *)

val all : unit -> (string * int) list
(** Every registered counter with its value, sorted by name. *)

val reset_all : unit -> unit
(** Zero every registered counter (registration survives). *)
