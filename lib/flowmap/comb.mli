(** Combinational mapping problems.

    A [comb] is a DAG of gates over pseudo-inputs; it is what FlowMap and
    FlowSYN operate on.  {!Flowsyn} builds one from a sequential circuit by
    cutting at every flip-flop (each registered signal becomes an [In]). *)

type node_kind =
  | In  (** pseudo primary input *)
  | Gate of Logic.Truthtable.t

type t = {
  kind : node_kind array;
  fanins : int array array;  (** gate fanins; [ [||] ] for [In] *)
}

val n : t -> int
val validate : t -> unit
(** @raise Invalid_argument on cycles, bad ids, arity mismatches. *)

val topo_order : t -> int array

val cone : t -> int -> int list
(** Transitive fanin cone of a node, including the node itself. *)

val cone_bdd :
  Bdd.man -> t -> root:int -> inputs:int array -> vars:int array -> Bdd.t
(** BDD of [root] over cut [inputs] (input [j] mapped to BDD variable
    [vars.(j)]): the cone function FlowSYN decomposes.
    @raise Invalid_argument if some path from [root] escapes the cut. *)
