(** Minimal JSON values: just enough for the stats report and the trace
    sink, with a parser for round-trip tests and downstream tooling.

    No external dependency: the container image carries no JSON library,
    and the subset used by the stats schema (finite numbers, UTF-8
    strings) is small enough to own. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
      (** Members keep their insertion order; duplicate keys are not
          rejected (the schema never produces them). *)

val equal : t -> t -> bool
(** Structural equality.  Floats compare with [Float.equal] (so [nan]
    equals [nan]); object member order is significant. *)

val to_string : t -> string
(** Compact one-line rendering.  Non-finite floats render as [null]
    (JSON has no representation for them); finite floats render as the
    shortest decimal that parses back to the same value. *)

val to_pretty_string : t -> string
(** Multi-line rendering with two-space indentation, for human eyes. *)

val of_string : string -> (t, string) result
(** Parse one JSON document.  Numbers without a fraction or exponent
    become [Int] (falling back to [Float] on overflow); trailing
    non-whitespace input is an error, and so are arrays and objects
    nested more than 512 deep. *)

val member : string -> t -> t option
(** [member k v] is the value of field [k] when [v] is an [Obj] that has
    one, [None] otherwise. *)
