(** Sequential mapping by cutting at flip-flops — the FlowSYN-s baseline of
    the paper (and plain FlowMap-s when resynthesis is off).

    The circuit is split into its combinational part by treating every
    registered signal [(driver, w)] as a pseudo input, and {!Labels} maps
    that network with FlowMap or FlowSYN.  Each pseudo input stands for
    the sequential cut pair [(driver, w)], so a gate's cut or LUT tree
    over comb nodes is a sequential implementation over those pairs;
    {!Seqmap.Mapgen} then emits the LUT network, reconnecting the
    flip-flops as edge weights, as it does for TurboMap and TurboSYN.
    Register positions never move during mapping, which is exactly why
    this baseline loses to TurboMap/TurboSYN on sequential circuits: the
    final clock period (after optimal retiming + pipelining, i.e. the MDR
    ratio of the result) is inherited from the fixed FF placement. *)

type report = {
  resyn_nodes : int;
  mdr : Graphs.Cycle_ratio.result;
      (** the mapped circuit's clock-period bound under retiming +
          pipelining *)
}

val map_sequential :
  ?resynthesize:bool ->
  ?cmax:int ->
  ?exhaustive:bool ->
  ?jobs:int ->
  Circuit.Netlist.t ->
  k:int ->
  Circuit.Netlist.t * report
(** [resynthesize = true] gives FlowSYN-s; default [false] is FlowMap-s.
    The result is a K-LUT circuit I/O-equivalent to the input (registers
    and their positions unchanged); like every [Mapgen] result it holds
    only the gates the primary outputs need.  [jobs] accepts only [1]: the
    benchmark harness still passes it, and it goes with the next
    benchmark change.
    @raise Invalid_argument if the input is not K-bounded, has
    combinational loops, or [jobs <> 1]. *)

val to_comb : Circuit.Netlist.t -> Comb.t * (int * int) array
(** The combinational view: the returned array maps each pseudo-[In] comb
    node to its [(driver, weight)] origin; PIs appear as [(pi, 0)].
    Exposed for tests. *)
