(** Single-output disjoint functional decomposition into K-LUT trees.

    This is the resynthesis engine of TurboSYN (and of the FlowSYN
    baseline): a cut function with more than K inputs is iteratively
    re-expressed as [f = f'(g(B), free)] where [B] is a bound set of at
    most K of the earliest-arriving inputs with column multiplicity µ <= 2,
    until at most K inputs remain.  Following the paper, inputs are sorted
    by increasing sequential arrival ([l(u) - φ·w] in TurboSYN's label
    computation), so extracted sub-LUTs are built from early signals and
    the root level stays low.

    Only single-output extraction is implemented, as in the paper (which
    notes the resulting area penalty and leaves multi-output decomposition
    to future work). *)

open Prelude

type tree =
  | Input of int  (** index into the caller's input array *)
  | Lut of Logic.Truthtable.t * tree array
      (** a LUT whose truth-table input [j] is fanin [j] *)

type result = {
  tree : tree;
  level : Rat.t;  (** arrival of the root under the given input arrivals *)
  luts : int;  (** number of LUT nodes in the tree *)
}

val eval_tree : tree -> (int -> bool) -> bool
(** Evaluate under an assignment of the original inputs. *)

val decompose :
  ?exhaustive:bool ->
  ?multi:bool ->
  Bdd.man ->
  f:Bdd.t ->
  vars:int array ->
  arrivals:Rat.t array ->
  k:int ->
  result option
(** [decompose man ~f ~vars ~arrivals ~k] where [vars.(i)] is the BDD
    variable of input [i].  Returns a K-feasible LUT tree computing [f], or
    [None] when single-output disjoint decomposition gets stuck (no bound
    set of size >= 2 among the candidates has µ <= 2).

    Candidate bound sets are the earliest-arrival prefixes of sizes K
    down to 2.  [exhaustive] (default false) adds, when they all fail,
    the subsets of sizes K and K-1 of the K+3 earliest inputs — the
    first 64 in lexicographic order of input positions, not all
    subsets.  Each step decides every candidate from one cofactor table
    of the step's function over these earliest inputs
    ({!Classes.at_most}); the first candidate that passes is
    extracted.

    [multi] (default false) enables two-wire extraction when no
    single-output bound set exists: a bound set of at least 3 inputs with
    column multiplicity <= 4 is replaced by two encoding wires.  This is
    the multiple-output decomposition the paper leaves as future work
    (citing Wurth et al. [26]); it widens the search space at an area
    cost.

    @raise Invalid_argument if [k < 2], [k > 6], or array lengths differ. *)

val bound_set_candidates :
  exhaustive:bool -> pool:int -> k:int -> int list list
(** The candidate bound sets {!decompose} tries at one step whose pool
    holds the [pool] earliest live inputs, in trial order, as ascending
    lists of pool positions: the earliest-arrival prefixes of sizes [k]
    down to 2, then under [exhaustive] the first 64 subsets of sizes [k]
    and [k - 1] of the pool in lexicographic order.  Tabulated once at
    module initialisation and immutable, so safe to read from any
    domain.
    @raise Invalid_argument unless [2 <= k <= 6] and
    [0 <= pool <= k + 3]. *)
