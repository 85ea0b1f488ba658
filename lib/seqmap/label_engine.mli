(** Iterative sequential label computation (TurboMap, and TurboSYN when
    resynthesis is enabled).

    For a target clock-period ratio φ, every gate gets a label lower-bound
    (PIs are 0, gates start at 1) that is monotonically raised:

    - [L(v) = max over fanins e(u,v) of l(u) - φ·w(e)];
    - [l(v) = L(v)] when the partial expanded circuit [E_v] has a
      K-feasible cut of height [<= L(v)] (max-flow test), and otherwise
    - with resynthesis: still [L(v)] if a min-cut of size [<= cmax] at
      height threshold [L(v) - h] (h = 0, 1, …) has a single-output
      functional decomposition whose root level stays [<= L(v)]
      (the paper's sequential functional decomposition);
    - else [L(v) + 1].

    SCCs are processed in topological order.  Within a nontrivial SCC,
    each iteration re-tests every member in sorted order.  The iteration
    stops on convergence (feasible); with PLD enabled, at the first round
    that provably repeats forever shifted by a uniform rise, or on total
    isolation in the support graph from round [6·m] on, or when a label
    exceeds the gate count (labels of feasible targets are bounded by the
    depth) (all infeasible); or at the hard n²-style cap (infeasible) —
    the paper's pre-PLD criterion. *)

open Prelude

type impl =
  | Cut of (int * int) array
      (** sequential cut: (driver, register count) pairs, distinct *)
  | Resyn of Decomp.Decompose.tree * (int * int) array
      (** decomposed LUT tree over the listed sequential inputs *)

type options = {
  k : int;
  resynthesize : bool;  (** TurboSYN when true, TurboMap when false *)
  cmax : int;  (** max cut width handed to the decomposition engine *)
  exhaustive : bool;  (** decomposition bound-set search *)
  pld : bool;  (** positive loop detection (on = the paper's TurboSYN/TurboMap) *)
  max_expansion : int;  (** node budget per expanded circuit *)
  multi_output : bool;
      (** allow two-wire bound-set extraction when single-output
          decomposition is stuck (the paper's future-work extension) *)
  full_expansion : bool;
      (** SeqMapII-style baseline: expand candidate regions of [E_v] to
          the node budget instead of the partial-network frontier — the
          construction TurboMap's partial flow networks replaced; for the
          benchmark comparison *)
}

val default_options : k:int -> options
(** k, resynthesize=false, cmax=15, exhaustive=false, pld=true,
    max_expansion=4000, multi_output=false, full_expansion=false.  The
    candidate expansion slack in [E_v] (3 levels) and the resynthesis
    thresholds tried (L(v) - 0 .. L(v) - 2) are fixed. *)

(** Why a label run ended. *)
type cause =
  | Converged  (** every SCC's labels stopped moving (feasible) *)
  | Periodic
      (** an SCC round repeated the previous one shifted by a uniform
          rise, provably forever (doc/ALGORITHM.md, "Periodic stop") *)
  | Pld_gate  (** total isolation from round [6·m] on (Theorem 2) *)
  | Diverged  (** a label passed the [(n_gates + 1)·q] bound *)
  | Cap  (** the hard quadratic round cap (the no-PLD stop) *)

type stats = {
  mutable iterations : int;
  mutable flow_tests : int;
  mutable decompositions : int;
  mutable pld_hits : int;
      (** SCCs proven infeasible by isolation or by a periodic stop *)
  mutable cause : cause;
  mutable cause_round : int;
      (** the deciding SCC's round: the one it stopped in, or for a
          converged run the most rounds any SCC took (0 without gates) *)
  mutable cause_gates : int;  (** the deciding SCC's gate count *)
}

val new_stats : unit -> stats
(** All counts 0, [Converged] at round 0 of no SCC. *)

val cause_name : cause -> string
(** ["converged"], ["periodic"], ["pld"], ["diverged"] or ["cap"]: the
    [cause] member of a [search.probe] record. *)

(** Provenance of one gate's harvested implementation: which mechanism
    justified it under the converged labels.  Produced for the audit
    layer ([doc/AUDIT.md]); the independent verifier re-derives the
    claimed facts from the cut alone. *)
type prov_source =
  | From_cut_test  (** fresh K-feasible-cut flow test passed at harvest *)
  | From_snapshot
      (** a validated expansion snapshot answered the harvest test
          without rebuilding *)
  | From_recorded
      (** the last passing cut recorded during iteration was still valid
          under the converged labels *)
  | From_resyn of int
      (** decomposition rescue; the payload is the attempt index [h]
          (candidate cuts taken at threshold [l(v) - h]) *)

type prov = {
  p_source : prov_source;
  p_cut : (int * int) array;
      (** the implementation's sequential inputs, (driver, registers) *)
  p_height : Rat.t;
      (** realized sequential arrival of the implementation root:
          [1 + max (l(u) - φ·w)] for a cut, the decomposition tree level
          for a rescue; always [<= p_label] *)
  p_label : Rat.t;  (** the gate's converged label [l(v)] *)
  p_iteration : int;
      (** global iteration index of the gate's last label change; [0]
          when the initial label survived *)
}

type outcome =
  | Feasible of {
      labels : Rat.t array;
      impls : impl option array;
      prov : prov option array;  (** defined exactly where [impls] is *)
    }
  | Infeasible

type resyn_cache
(** Memo tables for decomposition attempts, shared across probes of one
    ratio search: each cone decomposition keyed by (root, cut, arrival
    order) — the first tree stored under a key wins and every hit
    re-evaluates its level against the current arrivals — and each
    cone's BDD keyed by (root, cut), imported when a decomposition of
    the cone under another arrival order misses
    ([label.cone_reuses]).  Recorded resynthesis candidates remember
    their last answer from this cache and reuse it while the arrival
    order holds.  The cache also owns the search's BDD manager,
    created at the first cone and leased per cone, so one manager
    serves every probe of the search. *)

val new_cache : unit -> resyn_cache

type cut_memo
(** Cross-phi min-cut memo: the per-gate last-passing-cut table of the
    label engine, made shareable across the probes of one ratio
    search.  A cut's validity as a separating cut of a gate's expansion
    is structural — independent of labels and phi — so a run handed the
    memo revalidates each entry with an O(|cut|) width/height check
    before trusting it, skipping the expansion and the flow entirely on
    a hit ([cut.memo_hits] / [cut.memo_misses]).  A hit is sound, not
    exact: the recorded cut may lie deeper than a fresh expansion
    reaches ([Expanded.build]'s [extra_depth], 3), so it can justify a
    label that a fresh run cannot, and the harvest then needs that
    recorded cut to realize it.  Stale entries are overwritten by fresh
    passes.  The memo also carries each gate's expansion snapshots (up
    to 8, least recently used dropped first), each revalidated under
    the current labels, threshold and φ before it answers anything
    ([label.snapshot_reuses]). *)

val new_cut_memo : Circuit.Netlist.t -> cut_memo

val snapshot_revalidates :
  Expanded.t -> labels:Rat.t array -> phi:Rat.t -> threshold:Rat.t -> bool
(** The engine's snapshot check, exposed for tests: packs the
    (node, registers, internal) trace of an expansion the way the engine
    records it, and says whether every entry re-derives the same
    internal flag under the given labels, φ and threshold.  When it
    does, [Expanded.build] at that state must reproduce the expansion
    exactly — the fact every snapshot reuse rests on. *)

val stable_order : int array -> int array -> bool
(** [stable_order a perm], for a permutation [perm] of the indices of
    [a]: whether [perm] is the order [Array.stable_sort] puts the
    indices in by [a]'s values (ties by index) — the O(n) check a
    recorded candidate's arrival permutation is replayed under.
    Exposed for tests. *)

val run :
  ?cache:resyn_cache ->
  ?cutmemo:cut_memo ->
  options -> Circuit.Netlist.t -> phi:Rat.t ->
  outcome * stats
(** On [Feasible], [impls] is defined exactly on gates and every
    implementation realizes its gate with sequential arrival [<= l(v)]
    under the returned labels.
    @raise Invalid_argument if the circuit is not K-bounded or has a
    combinational loop. *)
