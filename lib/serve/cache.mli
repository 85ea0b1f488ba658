(** The serve layer's result cache: an LRU over rendered response
    bodies, keyed by the validated request (the server's key is the
    suite circuit name, the algorithm name and [k]), with single-flight
    deduplication.  {!find} answers a completed entry without waiting
    or computing, so the server can serve hits before it queues work;
    {!find_or_compute} resolves everything else.

    Single flight: when several requests for one key arrive while none
    has completed, exactly one caller computes; the rest block until
    the computation lands and then reuse its bytes ([Join]).  A failed
    computation (an exception) is never cached — waiters retry (at most
    one becomes the next leader), and the exception propagates only to
    the caller that computed it.

    Thread-safety: every operation may be called from any domain.  The
    compute callback runs {e outside} the cache lock, so long
    computations never block unrelated keys. *)

type t

type outcome =
  | Hit  (** served from the cache, no computation *)
  | Miss  (** this caller computed (and, on success, populated) *)
  | Join  (** waited on a concurrent in-flight computation *)
  | Bypass  (** capacity 0: caching disabled, computed directly *)

val outcome_label : outcome -> string
(** The [X-Cache] marker: [Hit]/[Join] are ["hit"], [Miss] is ["miss"],
    [Bypass] is ["bypass"] — a join served bytes it did not compute. *)

val create : capacity:int -> t
(** LRU over at most [capacity] completed entries ([>= 0]; [0]
    disables caching — every lookup is a [Bypass]).
    @raise Invalid_argument on a negative capacity. *)

val find : t -> key:string -> string option
(** The bytes of [key]'s completed entry (now the most recently used),
    or [None] when the key is absent or in flight, or caching is
    disabled.  Never waits on a flight and never leads one. *)

val find_or_compute : t -> key:string -> (unit -> string) -> string * outcome
(** Return the cached bytes for [key], or run the callback to produce
    them.  Results are cached (evicting the least-recently-used entry
    beyond capacity); exceptions are not, and re-raise in the computing
    caller only. *)

val length : t -> int
(** Completed entries currently cached (in-flight entries excluded). *)

val capacity : t -> int
