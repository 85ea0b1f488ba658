(** Reduced ordered binary decision diagrams (ROBDDs) with hash-consing.

    The variable order is the variable index (variable 0 at the top).  All
    nodes live in an explicit manager, so distinct circuits can use
    independent managers; within one manager, structural equality of node
    ids is functional equivalence, which is what the functional-
    decomposition engine relies on to count cofactor classes (column
    multiplicity).

    No dynamic reordering is implemented: the decomposition engine
    enumerates bound-set assignments explicitly (bound sets have at most
    K <= 6 variables), so it never needs the bound set moved to the top of
    the order. *)

type man
(** A BDD manager: node arrays, unique table, ite cache and one scratch
    memo for the per-call traversals.  Its tables are int-keyed
    open-addressing arrays that start small, double on demand and empty
    in O(1), so one manager serves every cone of a ratio search through
    {!reset} or {!lease}, its storage reused at the size the largest cone
    needed.  A manager belongs to one ratio search, whose label runs
    lease it one after another: never share one between concurrent
    callers ([doc/CONCURRENCY.md]). *)

type t
(** A BDD node handle, valid only with the manager that created it (and
    only until that manager is reset). *)

val new_man : unit -> man

val reset : man -> unit
(** [reset m] puts [m] back in the state {!new_man} gives: node ids
    restart at 2, {!nvars} is 0, the unique table and the ite cache are
    empty.  It frees none of the arrays.  Every handle of [m] is invalid
    afterwards; the same operation sequence then yields the same node ids
    as on a fresh manager.
    @raise Invalid_argument while [m] is leased. *)

val lease : man -> (unit -> 'a) -> 'a
(** [lease m f] resets [m] and runs [f] as its one owner, releasing it
    when [f] returns or raises.  A second [lease] (or a [reset]) of [m]
    before then raises [Invalid_argument]: two label runs sharing one
    manager is a determinism bug, reported rather than corrupting the
    tables. *)

val bdd_false : man -> t
val bdd_true : man -> t
val of_bool : man -> bool -> t

val var : man -> int -> t
(** [var m i] is the projection on variable [i] (>= 0); the manager grows
    its variable count as needed. *)

val nvars : man -> int
(** One more than the largest variable index seen so far. *)

val num_nodes : man -> int
(** Number of node ids allocated so far, terminals included
    (diagnostics).  Ids are assigned in creation order, so two managers
    fed the same operation sequence agree on it. *)

val neg : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val xnor : man -> t -> t -> t
val imp : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val equal : t -> t -> bool
(** Functional equivalence (hash-consing makes it constant-time). *)

val is_true : man -> t -> bool
val is_false : man -> t -> bool
val is_const : man -> t -> bool option

val restrict : man -> t -> int -> bool -> t
(** [restrict m f i b] is the cofactor of [f] with variable [i] fixed
    to [b]. *)

val restrict_many : man -> t -> (int * bool) list -> t

val cofactors : man -> t -> int array -> t array
(** [cofactors m f bound] is the array of the [2^b] cofactors of [f]
    over the [b] variables of [bound], indexed by assignment mask: bit
    [j] of the mask gives the value assigned to [bound.(j)].  Each
    cofactor equals the [restrict_many] of its assignment, but the
    family is computed as a restriction tree that shares partial
    restrictions and a single memo. *)

val compose : man -> t -> int -> t -> t
(** [compose m f i g] substitutes [g] for variable [i] in [f]. *)

val support : man -> t -> int list
(** Variables [f] depends on, increasing. *)

val eval : man -> t -> (int -> bool) -> bool
(** [eval m f env] evaluates under the assignment [env]. *)

val sat_count : man -> t -> int -> int
(** [sat_count m f n] counts satisfying assignments over variables
    [0 .. n-1]; [f] must not depend on variables [>= n]. *)

val of_truthtable : man -> Logic.Truthtable.t -> int array -> t
(** [of_truthtable m tt vars] builds the BDD of [tt] with input [j] of the
    truth table mapped to BDD variable [vars.(j)]. *)

val apply_truthtable : man -> Logic.Truthtable.t -> t array -> t
(** [apply_truthtable m tt args] composes: the BDD of [tt] applied to the
    argument BDDs (Shannon expansion over the truth table inputs). *)

val to_truthtable : man -> t -> int array -> Logic.Truthtable.t
(** [to_truthtable m f vars] evaluates [f] on all assignments of [vars]
    (at most 6), yielding a truth table whose input [j] is variable
    [vars.(j)].  [f] must not depend on variables outside [vars].
    @raise Invalid_argument if [Array.length vars > 6] or the support
    condition fails. *)

val size : man -> t -> int
(** Number of distinct nodes reachable from [f] (including terminals). *)

type exported
(** A manager-independent copy of one function's reduced graph: one
    word per node, plus the exporting manager's variable count. *)

val export : man -> t -> exported
(** [export m f] copies the nodes reachable from [f].
    @raise Invalid_argument past 2{^21} nodes or variable 2{^20}. *)

val import : man -> exported -> t
(** [import m x] rebuilds [x] in [m] and returns its root: the same
    function over the same variable indices, with {!size} unchanged.
    [nvars m] becomes at least the exporting manager's [nvars], so
    fresh variables numbered from [nvars] (as [Decompose] numbers them)
    start where they would have in the exporting manager. *)
