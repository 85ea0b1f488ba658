(** Exact rational arithmetic over native integers.

    All values are kept normalized: the denominator is strictly positive and
    [gcd |num| den = 1].  Numerators and denominators stay small in this
    project (clock-period ratios of circuits with at most a few thousand
    nodes), so native 63-bit arithmetic never overflows in practice; the
    operations nevertheless normalize eagerly to keep magnitudes minimal. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Invalid_argument if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
val abs : t -> t

val mul_int : t -> int -> t
(** [mul_int r k] is [r * k]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val sign : t -> int

val floor : t -> int
(** Largest integer [k] with [k <= r]. *)

val ceil : t -> int
(** Smallest integer [k] with [k >= r]. *)

val is_integer : t -> bool

val mediant : t -> t -> t
(** [mediant a/b c/d = (a+c)/(b+d)] — the Stern–Brocot mediant.  Used for
    exact binary search over bounded-denominator rationals. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val stern_brocot_min :
  lo:t -> hi:t -> max_den:int -> feasible:(t -> bool) -> t option
(** [stern_brocot_min ~lo ~hi ~max_den ~feasible] finds the smallest rational
    [r] in [(lo, hi]] with denominator at most [max_den] such that
    [feasible r], assuming [feasible] is monotone (once true, true for all
    larger values).  Returns [None] when even [feasible hi] is false.  The
    search is exact: it descends the Stern–Brocot tree restricted to
    denominators [<= max_den], so the result is the true minimum feasible
    ratio of the underlying parametric problem when that ratio has
    denominator [<= max_den].

    [feasible] may be asked about the same point more than once (the
    descent's own [lo], the mediant each walk starts from); a caller
    whose oracle is expensive memoizes it.  A walk from an infeasible
    point toward a finite feasible one probes its far end first.  Once
    the integer phase brackets the answer in (n-1, n], the next probe is
    n - 1/max_den: when it is infeasible it certifies n with no further
    probe (the two are Farey neighbors within the budget); when it is
    feasible the descent continues as it would have without it. *)
