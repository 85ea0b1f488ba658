(** TurboSYN: FPGA synthesis with retiming and pipelining for clock-period
    minimization of sequential circuits (Cong & Wu, DAC 1997).

    The flow mirrors the paper's Figure 4:

    + run TurboMap-style label computation to obtain the upper bound UB
      (here: the exact-rational Stern–Brocot search starts from the MDR of
      the trivial mapping, which bounds UB);
    + binary-search the minimum MDR ratio φ*, each probe being a label
      computation with sequential functional decomposition and positive
      loop detection;
    + generate the LUT mapping from the converged labels;
    + recover area (cut sharing, packing);
    + retime + pipeline the result to clock period [ceil φ*].

    Use [`Turbosyn] for the paper's algorithm, [`Turbomap] for the
    no-resynthesis baseline, and [`Flowsyn_s] for the cut-at-FFs baseline
    (FlowSYN applied per combinational block). *)

open Prelude

type algo = [ `Turbosyn | `Turbomap | `Flowsyn_s ]

val algo_name : algo -> string
(** ["turbosyn"], ["turbomap"], ["flowsyn-s"]. *)

val algo_of_name : string -> algo option
(** The inverse of {!algo_name}; [None] for any other string. *)

type options = {
  k : int;
  cmax : int;
  pld : bool;
  exhaustive : bool;
  area_recovery : bool;
  phi_max_den : int option;
      (** cap on the denominators explored by the exact ratio search
          ([None] = fully exact up to the register count) *)
  multi_output : bool;
      (** two-wire bound-set extraction in the decomposition engine (the
          paper's future-work extension; off by default, like the paper) *)
  jobs : int;
  probe_jobs : int;
      (** [jobs] and [probe_jobs] accept only [1]; {!run} raises
          [Invalid_argument] for any other value.  The benchmark harness
          still reads both fields, and they go with the next benchmark
          change. *)
}

val default_options : ?k:int -> unit -> options
(** Paper defaults: K = 5, Cmax = 15, PLD on, area recovery on,
    [phi_max_den = Some 24].  [exhaustive] is on — the decomposition tries
    bound sets beyond the earliest-arrival prefix, which measurably closes
    quality gaps at modest cost.  [jobs = 1], [probe_jobs = 1].  The
    expansion slack, node budget and resynthesis depth are the label
    engine's defaults ({!Seqmap.Label_engine.default_options}). *)

type result = {
  algo : algo;
  mapped : Circuit.Netlist.t;  (** after area recovery *)
  realized : Circuit.Netlist.t option;
      (** retimed + pipelined to [clock_period]; [None] only if
          realization failed (never for valid inputs) *)
  phi : Rat.t;
      (** minimum (or achieved, for [`Flowsyn_s]) MDR ratio; a cyclic
          [`Flowsyn_s] ratio is floored at 1, as the searched flows
          clamp theirs to [\[1, UB\]] *)
  clock_period : int;  (** [max 1 (ceil phi_mapped)] *)
  latency : int;  (** pipeline stages added at realization *)
  luts : int;  (** after area recovery *)
  luts_before_area : int;
  resyn_nodes : int;  (** decompositions accepted during labeling *)
  probes : int;
  label_stats : Seqmap.Label_engine.stats option;  (** None for [`Flowsyn_s] *)
  cpu_seconds : float;
  labels : Prelude.Rat.t array option;
      (** converged labels of the final label run at [phi], indexed by
          node of the {e source} netlist; [None] for [`Flowsyn_s] *)
  prov : Seqmap.Label_engine.prov option array option;
      (** per-gate implementation provenance of the final label run
          (audit evidence, [doc/AUDIT.md]); [None] for [`Flowsyn_s] *)
  lags : int array option;
      (** the retiming lag vector achieving [clock_period], indexed by
          node of [mapped]; [None] when realization failed *)
}

val run : ?options:options -> algo -> Circuit.Netlist.t -> result
(** @raise Invalid_argument on invalid or non-K-bounded input, or when
    [jobs] or [probe_jobs] is not [1]. *)

val engine_options : options -> resynthesize:bool -> Seqmap.Label_engine.options
(** The label-engine options this [options] record induces: the engine's
    defaults for [k], overridden by [resynthesize], [cmax], [exhaustive],
    [pld] and [multi_output]. *)
