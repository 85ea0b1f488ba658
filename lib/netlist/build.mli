(** Convenience constructors for building circuits programmatically
    (examples, tests and workload generators). *)

open Logic

val const : ?name:string -> Netlist.t -> bool -> Netlist.node_id
(** A 0-input gate producing a constant. *)

val not_ : ?name:string -> ?w:int -> Netlist.t -> Netlist.node_id -> Netlist.node_id
val buf : ?name:string -> ?w:int -> Netlist.t -> Netlist.node_id -> Netlist.node_id
(** Identity gate; [buf ~w:k] also serves as an explicit k-FF delay stage. *)

val and2 :
  ?name:string -> ?wa:int -> ?wb:int ->
  Netlist.t -> Netlist.node_id -> Netlist.node_id -> Netlist.node_id

val or2 :
  ?name:string -> ?wa:int -> ?wb:int ->
  Netlist.t -> Netlist.node_id -> Netlist.node_id -> Netlist.node_id

val xor2 :
  ?name:string -> ?wa:int -> ?wb:int ->
  Netlist.t -> Netlist.node_id -> Netlist.node_id -> Netlist.node_id

val mux :
  ?name:string ->
  Netlist.t ->
  sel:Netlist.node_id -> t1:Netlist.node_id -> t0:Netlist.node_id ->
  Netlist.node_id
(** [mux ~sel ~t1 ~t0]: output is [t1] when [sel], else [t0] (weight-0
    fanins). *)

val gate :
  ?name:string ->
  Netlist.t -> Truthtable.t -> (Netlist.node_id * int) list -> Netlist.node_id
(** General gate from a fanin list. *)

val full_adder :
  Netlist.t ->
  a:Netlist.node_id -> b:Netlist.node_id -> cin:Netlist.node_id ->
  Netlist.node_id * Netlist.node_id
(** [(sum, carry)] built from two 3-input gates. *)
