(** Retiming with pipelining: PO lags are free (non-negative), which is
    equivalent to inserting pipeline registers on the input side and letting
    retiming distribute them.

    With pipelining, the achievable clock period of a unit-delay circuit is
    bounded only by its loops: [max (1, ceil (MDR))] (Papaefthymiou / the
    paper's Problem 1 rationale).  [min_period] computes that bound exactly
    from the MDR ratio and constructs lags achieving it with the ASAP
    relaxation of Leiserson–Saxe's FEAS (gates and POs with arrival beyond
    the target get their lag incremented; PI lags stay 0). *)

val period_lower_bound :
  Circuit.Netlist.t -> [ `Period of int | `Infinite ]
(** [max (1, ceil MDR)]; [`Infinite] when the circuit has a combinational
    loop.  Acyclic circuits give period 1. *)

val retime_to_period : Circuit.Netlist.t -> period:int -> int array option
(** Lags (with [r >= 0], [r = 0] on PIs) achieving the period under
    retiming + pipelining, or [None] when [period] is below the loop
    bound. *)

val lags_at : Circuit.Netlist.t -> period:int -> int array
(** The lags of {!retime_to_period} for a [period] the caller already
    knows to be at least the loop bound ({!period_lower_bound}), without
    solving the bound again.
    @raise Invalid_argument when [period] is below the loop bound. *)

val min_period : Circuit.Netlist.t -> int * int array
(** The loop bound and lags achieving it.
    @raise Invalid_argument on a combinational loop. *)

val latency : Circuit.Netlist.t -> r:int array -> int
(** Added I/O latency: the maximum PO lag. *)
