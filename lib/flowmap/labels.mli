(** FlowMap / FlowSYN label computation for combinational circuits.

    FlowMap (Cong–Ding): the label of a gate [v] is the minimum LUT depth
    of any K-LUT mapping of its cone.  With [p] the maximum fanin label,
    [l(v) = p] iff the cone has a K-feasible cut whose cut nodes all have
    labels [<= p-1] (decided by max-flow with nodes of label [p] collapsed
    into the sink), else [l(v) = p+1].

    FlowSYN ([resynthesize = true]) goes beyond the combinational limit:
    when the K-cut test fails, it takes a minimum cut with cut labels
    [<= p-1] (of size up to [cmax], the paper uses 15) and tries OBDD-based
    functional decomposition of the cone function; if the decomposed LUT
    tree still reaches depth [p], the label stays [p]. *)

type impl =
  | Cut of int array
      (** LUT = cone function over these cut nodes (at most K, distinct) *)
  | Resyn of Decomp.Decompose.tree * int array
      (** decomposed implementation; tree [Input i] refers to the i-th
          entry of the array *)

type result = {
  labels : int array;  (** 0 for [In] nodes *)
  impls : impl option array;  (** [Some] exactly on gates *)
  resyn_nodes : int;  (** gates whose label was saved by resynthesis *)
}

val compute :
  ?resynthesize:bool ->
  ?cmax:int ->
  ?exhaustive:bool ->
  Comb.t ->
  k:int ->
  result
(** Defaults: [resynthesize = false] (plain FlowMap), [cmax = 15],
    [exhaustive = false] (prefix bound sets only).
    @raise Invalid_argument if the input is not K-bounded or [k] is outside
    [\[2, 6\]]. *)

val mapping_depth : Comb.t -> result -> int
(** Maximum label over the roots: the depth of the mapping the labels
    induce. *)
