(** Positive-cycle detection with integer edge lengths.

    The max delay-to-register (MDR) feasibility probe reduces to: does the
    retiming graph contain a cycle of positive total length when each edge
    [e] has length [q*delay(e) - p*weight(e)] for a candidate ratio [p/q]?
    Lengths fit comfortably in native ints for every circuit size this
    project handles. *)

type edge = { src : int; dst : int; len : int }

val has_positive_cycle : n:int -> edges:edge array -> bool
(** Bellman–Ford from a virtual source connected to every node with
    length-0 edges (detects positive cycles anywhere in the graph); early
    exit when a relaxation pass changes nothing. *)
