(** Partial expanded circuits (Pan–Liu's [E_v], TurboMap's partial flow
    network).

    The expanded circuit of a node [v] represents every LUT rooted at [v]
    under retiming and node replication: its nodes are pairs [u^w] (signal
    [u] seen through [w] registers), the root is [v^0], and the fanins of
    [u^w] are [x^(w + w(e))] for every circuit edge [e(x,u)].  A cut
    separates the root from the leaves; the cut-set nodes are the LUT's
    sequential inputs.

    The expansion is partial: with respect to a height threshold
    ([height(u^w) = l(u) - φ·w + 1] for the current label lower-bounds),
    nodes above the threshold must lie inside the LUT and are always
    expanded; nodes at or below it are cut candidates and are expanded only
    [extra_depth] levels further (deeper cuts can only shrink, never fix a
    height violation, because heights are non-increasing toward the leaves
    once labels settle).  PIs never expand.  If the [max_nodes] budget is
    hit while a must-inside node is unexpanded, the expansion reports
    overflow and the caller must treat the cut test as failed (sound:
    labels only over-approximate). *)

type node = { u : int; w : int }

type t = {
  nodes : node array;  (** index 0 is the root [v^0] *)
  edges : (int * int) array;  (** (fanin, consumer) in local indices *)
  internal : bool array;  (** height above threshold: must be inside the LUT *)
  sources : int list;  (** unexpanded leaves (PIs and depth-capped candidates) *)
  overflow : bool;
}

type arena
(** Reusable build scratch: the growable node/edge vectors, the open
    addressing [(u, w)] index and the BFS queue, reset per build instead of
    re-allocated.  One arena per label run (never shared between
    concurrent callers — see [doc/CONCURRENCY.md]); a build that finds its
    arena already owned by an in-flight build raises [Invalid_argument]
    rather than corrupting the scratch state.  The returned [t] copies out
    of the arena, so it stays valid across later builds. *)

val new_arena : unit -> arena

val build :
  ?arena:arena ->
  internal_of:(int -> int -> bool) ->
  Circuit.Netlist.t ->
  root:int ->
  extra_depth:int ->
  max_nodes:int ->
  t
(** [internal_of u w] decides whether node [u^w] lies above the height
    threshold — [l(u) - φ·w + 1 > threshold] for the caller's labels,
    φ and threshold — and so must be inside the LUT.  It is the only way
    the build reads labels: the label engine passes it in scaled-integer
    arithmetic, tests pass a rational oracle.  The root is internal
    regardless. *)

val kcut_spec : t -> Flow.Kcut.spec
(** The node-cut problem: separate the sources from the internal region. *)

val frontier_cut : t -> int list
(** The widest natural cut: every non-internal node with an edge into the
    internal region (local indices, ascending).  Valid by construction —
    any source-to-root path crosses it — and the most generous input set
    for functional decomposition (FlowSYN's block boundary corresponds to
    this cut).  Empty when no such cut exists (the internal region reaches
    a PI or the expansion budget). *)

val frontier_witness : t -> k:int -> int list option
(** [frontier_cut] restricted to valid nonempty frontiers of width at most
    [k], without materializing anything on the failing side.  A witness
    makes the flow-based K-cut decision a foregone pass: the frontier is a
    cut of the expansion, so the max flow is bounded by its width. *)

val cone_bdd :
  Bdd.man -> Circuit.Netlist.t -> t -> cut:int list -> vars:int array ->
  Bdd.t
(** Function of the root over the cut signals ([vars.(i)] is the BDD
    variable of the i-th cut node).  Every path from the root must stop at
    the cut.
    @raise Invalid_argument otherwise. *)
