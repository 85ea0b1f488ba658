(** LUT network generation from converged sequential labels.

    Every needed gate becomes one LUT (or a small LUT tree for resynthesized
    nodes).  A sequential cut input [(u, w)] becomes an edge of weight [w]
    from the LUT of [u] — the registers absorbed into the expanded circuit
    reappear as edge weights, so cycle register counts are preserved and the
    mapped circuit is I/O-equivalent to the original from reset (all
    flip-flops start at 0 in both).  Clock-period realization (retiming +
    pipelining) is a separate, later step. *)

val cut_function :
  Circuit.Netlist.t ->
  root:int ->
  cut:(int * int) array ->
  Logic.Truthtable.t
(** Function of gate [root] over the sequential cut signals (cut width at
    most 6): the circuit is unrolled from [root], stopping exactly at cut
    pairs [(driver, accumulated registers)].  Partial application to the
    netlist computes the unroll bound (O(E)) once; apply it once per
    netlist and reuse the result for every LUT.
    @raise Invalid_argument if the cut does not cover all paths. *)

type memo
(** LUT functions already built, keyed by (root, cut).  A LUT's function
    depends only on its root and cut, so a caller that generates many
    mappings of one source netlist builds each truth table once. *)

val new_memo : unit -> memo
(** An empty memo.  One memo serves one source netlist. *)

val generate :
  ?memo:memo ->
  Circuit.Netlist.t ->
  impls:Label_engine.impl option array ->
  Circuit.Netlist.t
(** Build the mapped netlist (PIs/POs preserved with names).  Plain-cut
    LUT functions are read from and added to [memo] (default: a fresh
    one); the result is the same netlist either way.
    @raise Invalid_argument if a needed gate lacks an implementation. *)

val lut_count : Circuit.Netlist.t -> int
(** Gates of a mapped netlist. *)
