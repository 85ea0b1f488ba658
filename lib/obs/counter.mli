(** Named monotonic counters with a process-global registry.

    A counter is created once at module-initialization time (creation is
    idempotent per name) and bumped from hot paths.  Every mutation is
    gated on the global switch ({!Obs.set_enabled}): when observability is
    off, [incr]/[add]/[record_max] reduce to one load and one branch — no
    allocation, no hashing.

    The registered names form the [counters] object of the stats schema;
    [doc/OBSERVABILITY.md] documents each one. *)

type t
(** A registered counter.  Physically equal for equal names. *)

val make : string -> t
(** [make name] returns the counter registered under [name], creating it
    at zero on first use.  Dotted lower-case names ([subsystem.metric])
    by convention. *)

val name : t -> string

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
    observability is disabled. *)

val find : string -> int option
(** Look a counter up by name; [None] if never created. *)

val all : unit -> (string * int) list
(** Every registered counter with its value, sorted by name. *)

val reset_all : unit -> unit
(** Zero every registered counter (registration survives). *)

(** {2 Request-scope shards}

    The registry is unsynchronized; worker domains must never mutate it
    directly.  {!Obs.Scope.run} installs a scope's shard on the calling
    domain with [set_shard], after which [incr]/[add]/[record_max]
    accumulate into domain-local cells, and {!Obs.Scope.close} folds the
    cells into the registry with [merge_shard] ([adds] merge by sum,
    [record_max] by max — both commutative, so merge order cannot
    affect totals).  Use {!Obs.Scope} rather than these directly. *)

type shard

val new_shard : unit -> shard

val set_shard : shard option -> unit
(** Route this domain's counter mutations into the shard ([Some]), or
    back to the registry ([None]). *)

val merge_shard : shard -> unit
(** Fold the shard's cells into the global registry and empty it.  Call
    from a domain the shard is not installed on. *)

val shard_contents : shard -> (string * int) list
(** The shard's local counter values (adds folded with peaks), sorted
    by name, without merging or emptying it. *)
