(** Topological ordering of directed acyclic graphs (Kahn's algorithm). *)

val sort : n:int -> succ:(int -> int list) -> int array option
(** [sort ~n ~succ] returns the nodes in an order where every edge goes
    from an earlier to a later position, or [None] when the graph has a
    cycle. *)

val sort_exn : n:int -> succ:(int -> int list) -> int array
(** @raise Invalid_argument on a cyclic graph. *)
