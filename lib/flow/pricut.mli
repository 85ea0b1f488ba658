(** Priority K-cut enumeration: the pre-filter layer of the three-layer
    cut engine (doc/PERF.md).

    Enumerates a bounded set of minimal node cuts per node of a
    {!Kcut.spec} cone network, bottom-up, and merges the sets of the
    maximal sink-side nodes into a verdict for the whole cone.  The
    enumeration is exact whenever it is conclusive: a returned cut is a
    genuine separating cut of width [<= k], and [Exceeds] is only
    reported when the enumeration ran without hitting any budget, so it
    has proved that no such cut exists.  Whenever a per-node budget
    truncates the search the verdict degrades to [Unknown] and the caller
    falls back to the max-flow solver ({!Kcut.find}).

    The enumerated witness is the highest-priority cut (fewest inputs,
    then lexicographic) and is deterministic — independent of domain
    scheduling, hosts, and arena reuse — so callers that substitute it
    for a flow-derived cut stay reproducible. *)

type verdict =
  | Cut of int list  (** a separating node cut of size [<= k], ascending ids *)
  | Exceeds  (** proven: every cut separating the sources is wider than [k] *)
  | Unknown  (** inconclusive (budget hit, oversized or cyclic spec) *)

type arena
(** Reusable enumeration scratch, sized to the largest cone seen.  One
    arena per label run, like {!Kcut.arena}; concurrent use of one arena
    raises [Invalid_argument]. *)

val new_arena : unit -> arena

val decide :
  ?arena:arena ->
  ?max_nodes:int ->
  ?max_cuts:int ->
  ?cand_cap:int ->
  Kcut.spec ->
  k:int ->
  verdict
(** [decide spec ~k] enumerates and merges priority cuts.  [max_nodes]
    (default 160) skips cones too large to enumerate profitably —
    returning [Unknown] immediately; [max_cuts] (default 8) bounds the
    cuts kept per node; [cand_cap] (default 40) bounds the candidates
    generated per merge step.  Exceeding [max_cuts]/[cand_cap] clears
    the completeness flag, so the budgets trade conclusiveness, never
    soundness. *)
