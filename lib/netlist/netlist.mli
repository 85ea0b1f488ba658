(** Sequential circuits as retiming graphs.

    A circuit is a directed graph whose nodes are primary inputs, primary
    outputs and gates (each gate carries a truth table whose input [j]
    corresponds to fanin [j]).  Every fanin edge has a non-negative integer
    weight: the number of flip-flops between the driver and the consumer
    (Leiserson–Saxe retiming-graph form).  There are no explicit FF nodes;
    retiming and pipelining only change edge weights.

    Weight-0 edges must form a DAG (no combinational loops); [validate]
    checks this along with arity and K-boundedness. *)

type t
type node_id = int

type kind =
  | Pi
  | Po
  | Gate of Logic.Truthtable.t

val create : ?name:string -> unit -> t
val name : t -> string
val set_name : t -> string -> unit

val n : t -> int
(** Number of nodes; node ids are [0 .. n-1] in creation order. *)

val add_pi : ?name:string -> t -> node_id
val add_po : ?name:string -> t -> driver:node_id -> weight:int -> node_id
val add_gate :
  ?name:string -> t -> Logic.Truthtable.t -> (node_id * int) array -> node_id
(** [add_gate t f fanins] where [fanins.(j)] is [(driver, weight)] for truth
    table input [j].
    @raise Invalid_argument if the truth-table arity differs from the fanin
    count, a weight is negative, or a driver id is out of range. *)

val reserve_gate : ?name:string -> t -> node_id
(** Allocate a gate node whose function and fanins are supplied later with
    [define_gate] — needed by parsers where gates may reference signals
    defined further down the file.  Until defined, the node is a 0-input
    constant-false gate. *)

val define_gate :
  t -> node_id -> Logic.Truthtable.t -> (node_id * int) array -> unit
(** Fill in a node allocated with [reserve_gate] (or re-define any gate).
    @raise Invalid_argument on arity mismatch or bad fanins. *)

val kind : t -> node_id -> kind
val is_gate : t -> node_id -> bool
val gate_function : t -> node_id -> Logic.Truthtable.t
(** @raise Invalid_argument on a non-gate node. *)

val fanins : t -> node_id -> (node_id * int) array
(** Physical array — do not mutate; use [set_fanins]/[set_weight]. *)

val set_fanins : t -> node_id -> (node_id * int) array -> unit
val set_weight : t -> node_id -> int -> int -> unit
(** [set_weight t v j w] sets the weight of fanin [j] of [v]. *)

val set_gate_function : t -> node_id -> Logic.Truthtable.t -> unit
(** Replace a gate's function (arity must match its fanin count). *)

val node_name : t -> node_id -> string
(** The given name, or a generated one ([n<id>]). *)

val find_by_name : t -> string -> node_id option

val pis : t -> node_id list
(** In creation order. *)

val pos : t -> node_id list

val gates : t -> node_id list
(** In creation order (a topological order of weight-0 edges is NOT
    implied; see [comb_topo_order]). *)

val delay : t -> node_id -> int
(** Unit delay model: 1 for gates, 0 for PIs and POs. *)

val fanouts : t -> node_id list array
(** Freshly computed fanout lists (consumers of each node, with
    multiplicity). *)

val max_fanin_weight : t -> int

(** {1 Graph views} *)

val retiming_edges : t -> Graphs.Cycle_ratio.edge array
(** One edge per fanin, [delay = delay t dst], [weight] = FF count.  This is
    the view used for MDR-ratio computations. *)

val comb_topo_order : t -> node_id array
(** Topological order of the weight-0 subgraph.
    @raise Invalid_argument when the circuit has a combinational loop. *)

val mdr_ratio : t -> Graphs.Cycle_ratio.result
(** Maximum delay-to-register ratio of the circuit under the unit delay
    model — the paper's optimization objective. *)

(** {1 Statistics} *)

type stats = {
  n_pi : int;
  n_po : int;
  n_gates : int;
  n_ff : int;
      (** flip-flop count with fanout sharing: for every driver, the maximum
          weight over its fanout edges (a chain of FFs is shared by all
          consumers at lower depths) *)
  total_edge_weight : int;
  max_fanin : int;
  comb_depth : int;  (** longest weight-0 path, in gates *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {1 Validation} *)

type error =
  | Arity_mismatch of node_id
  | Negative_weight of node_id * int
  | Dangling_driver of node_id * int
  | Po_without_driver of node_id
  | Combinational_loop
  | Fanin_exceeds of node_id * int  (** gate with more than K fanins *)

val pp_error : Format.formatter -> error -> unit

val validate : ?k:int -> t -> error list
(** Empty when the circuit is well-formed (and K-bounded when [k] is
    given). *)

val validate_exn : ?k:int -> t -> unit
(** @raise Invalid_argument listing the problems. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Multi-line dump for debugging. *)
