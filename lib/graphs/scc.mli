(** Strongly connected components (Tarjan's algorithm, iterative).

    TurboSYN processes SCCs of the retiming graph in topological order during
    label computation, and the positive-loop-detection theorem (Theorem 2 of
    the paper) is stated per SCC. *)

type t = {
  comp : int array;  (** component id of each node, in [\[0, count)] *)
  count : int;  (** number of components *)
  members : int array array;  (** nodes of each component *)
}

val compute : n:int -> succ:(int -> int list) -> t
(** Component ids are a reverse topological order of the condensation:
    if there is an edge from component [a] to component [b <> a] then
    [a > b].  Hence iterating components [0, 1, …] visits them in
    topological order of the condensation reversed… concretely: every edge
    leaving component [c] enters a component with a smaller id, so
    processing ids in increasing order sees all predecessors of a node's
    component before the component itself when edges are followed
    backwards.  Use [topo_order] for the forward order. *)

val topo_order : t -> int array
(** Component ids sorted so that every inter-component edge goes from an
    earlier to a later position (forward topological order of the
    condensation). *)

val is_trivial : t -> succ:(int -> int list) -> int -> bool
(** [is_trivial scc ~succ c] is true when component [c] is a single node
    without a self-loop (no cycle through it). *)
