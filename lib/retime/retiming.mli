(** Leiserson–Saxe retiming of unit-delay circuits.

    A retiming assigns an integer lag [r(v)] to every node; edge weights
    become [w'(u,v) = w(u,v) + r(v) - r(u)].  Cycle weights are invariant,
    I/O latency changes by [r(po) - r(pi)].  Pure retiming fixes
    [r = 0] on PIs and POs; pipelined retiming (see {!Pipeline}) lets PO
    lags grow, which inserts pipeline stages. *)

val delta :
  Circuit.Netlist.t -> weight:(int -> int -> int) -> int array option
(** Arrival times over the zero-weight subgraph under a caller-supplied
    weight view ([weight v j] is the weight of fanin [j] of [v]); [None] on
    a zero-weight cycle.  Shared with {!Pipeline}'s FEAS iteration. *)

val retimed_weight : Circuit.Netlist.t -> int array -> int -> int -> int
(** [retimed_weight nl r v j = w + r.(v) - r.(driver)] for fanin [j] of
    [v]. *)

val clock_period : Circuit.Netlist.t -> int
(** Maximum combinational path delay (number of gates on a register-free
    path), i.e. the clock period of the circuit as it stands.
    @raise Invalid_argument on a combinational loop. *)

val legal : Circuit.Netlist.t -> r:int array -> bool
(** All retimed edge weights non-negative. *)

val apply : Circuit.Netlist.t -> r:int array -> Circuit.Netlist.t
(** A copy of the circuit with retimed weights.
    @raise Invalid_argument when [r] is illegal. *)

val min_period : Circuit.Netlist.t -> int * int array
(** Minimum clock period achievable by pure retiming ([r = 0] on PIs and
    POs) and a lag vector achieving it.  Exact: binary search over target
    periods with a Bellman–Ford solve of the Leiserson–Saxe difference
    constraints (W/D matrices).  Quadratic in circuit size — intended for
    circuits up to a few thousand nodes.
    @raise Invalid_argument on a combinational loop. *)

val feasible_period : Circuit.Netlist.t -> period:int -> int array option
(** Lag vector achieving clock period [<= period] under pure retiming, if
    one exists. *)

val ff_count : Circuit.Netlist.t -> r:int array -> int
(** Shared-register count of the retimed circuit (sum over drivers of the
    maximum retimed weight across their fanout edges), computed without
    materializing the circuit. *)

val minimize_ffs : Circuit.Netlist.t -> period:int -> r:int array -> int array
(** Greedy register-count reduction (the paper leaves FF minimization to
    retiming): starting from the legal lag vector [r] (clock period
    [<= period]), repeatedly nudge single gate lags by ±1 whenever that
    lowers [ff_count] while preserving legality and the period.  Returns a
    lag vector no worse than [r] on either metric.  Legality and the
    register count of a trial are checked on the moved gate's edges and
    its fanin drivers' fanouts; the whole-circuit period pass runs only
    for a legal trial that lowers the count (counters
    [retime.ffmin_trials], [retime.ffmin_period_checks],
    [retime.ffmin_moves]). *)
