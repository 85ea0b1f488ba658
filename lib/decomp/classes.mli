(** Cofactor classes (column multiplicity) of a Boolean function with
    respect to a bound set.

    For a function [f] and a bound set [B] of variables, two assignments to
    [B] are equivalent when the induced cofactors of [f] are equal.  The
    number of classes is the column multiplicity µ of the decomposition
    chart; a disjoint single-output decomposition
    [f = f'(g(B), free)] exists iff µ <= 2 (Roth–Karp / Ashenhurst).

    Bound sets have at most 6 variables here (K-LUT extraction with
    K <= 6), so the 2^|B| cofactors are enumerated directly; hash-consing
    makes cofactor equality a pointer comparison. *)

type t = {
  class_of : int array;
      (** for each of the [2^|B|] bound assignments, its class index *)
  representatives : Bdd.t array;
      (** one cofactor per class, indexed by class *)
}

val compute : Bdd.man -> Bdd.t -> bound:int array -> t
(** [compute man f ~bound] where [bound] lists distinct BDD variables
    (at most 16 — caller should keep it small).
    Bound assignment [m] sets [bound.(j)] to bit [j] of [m]. *)

val multiplicity : Bdd.man -> Bdd.t -> bound:int array -> int
(** Number of cofactor classes. *)

val at_most : Bdd.t array -> bound:int -> mu:int -> bool
(** [at_most table ~bound ~mu] where [table = Bdd.cofactors man f pool]
    decides [multiplicity man f ~bound:b <= mu] for the bound set [b] of
    the pool variables [pool.(j)] whose bit [j] is set in [bound].  Two
    bound assignments share a class iff their table entries agree under
    every assignment of the rest of the pool, so one table decides every
    bound set drawn from the pool by int comparisons alone — the
    bound-set search's per-trial test.  [mu >= 1]. *)
