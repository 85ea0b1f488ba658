(** K-feasible node cuts on cone networks.

    Given a DAG whose edges point from inputs toward a root, a set of
    [sink_side] nodes that must stay on the root side of the cut (in
    FlowMap terms: the nodes collapsed into the sink because their label or
    height is too large) and a set of frontier [sources] (fed by the
    super-source), decide whether the sources can be separated from the
    root by removing at most [k] nodes, and return such a node cut-set.

    This is the decision at the heart of FlowMap's label computation and of
    TurboMap/TurboSYN's sequential label computation on expanded circuits:
    node capacities are 1, so by max-flow/min-cut a flow value [<= k]
    certifies a K-feasible cut and the residual graph yields it. *)

type spec = {
  n : int;
  edges : (int * int) array;  (** [(u, v)]: u feeds v (v is closer to the root) *)
  sink_side : bool array;  (** length [n]; must include the root *)
  sources : int list;  (** frontier nodes; a valid cut never crosses them upstream *)
}

type result =
  | Cut of int list  (** a node cut-set of size [<= k], ascending ids *)
  | Exceeds  (** every cut separating the sources from the root is larger than [k] *)

type arena
(** A reusable flow network.  Passing the same arena to successive calls
    re-fills one [Maxflow.t] (cleared between decisions) instead of
    allocating a network per cut test.  An arena must not be shared
    between concurrent callers (one per label run — see
    [doc/CONCURRENCY.md]); a solve that finds its arena already owned by
    an in-flight solve raises [Invalid_argument] rather than corrupting
    the network. *)

val new_arena : unit -> arena

val find : ?arena:arena -> spec -> k:int -> result
(** The cut returned is a minimum one, the canonical cut reachable from
    the sources in the residual graph, and the same for every [k] at or
    above its size: one call with a larger [k] answers both "is there a
    cut of width [<= k]" and "which minimum cut fits the larger bound".
    @raise Invalid_argument on malformed specs (bad ids, empty sink side). *)
