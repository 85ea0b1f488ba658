(** Positive loop detection (the paper's PLD technique).

    For the current label lower-bounds, the predecessor (support) graph Gπ
    has an edge [u -> v] when fanin [u] justifies [v]'s label:
    [l(u) - φ·w(e) + 1 >= l(v)] (and no edges into [v] when [l(v) <= 1]).
    A target ratio is infeasible when an SCC becomes *totally isolated*:
    no node of the SCC is supported — directly or transitively — by a
    grounded node (a PI, an upstream node outside the SCC, or a node with
    label [<= 1]).  Divergent label growth is exactly self-referential
    support, so isolation detects positive loops long before the
    conservative n² iteration bound. *)

val all_isolated :
  Circuit.Netlist.t ->
  slab:int array ->
  p:int ->
  q:int ->
  members:int array ->
  in_scc:(int -> bool) ->
  bool
(** For [φ = p/q], [slab.(u) = q·l(u)]: the label engine's scaled
    labels.  [members] are the gate nodes of one SCC; [in_scc] tests
    membership.  True when no member is reachable from grounded
    support. *)
