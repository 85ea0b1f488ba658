(** Test oracle for the Prometheus text exposition format (0.0.4). *)

val validate : string -> (unit, string list) result
(** Check a scrape body against the exposition format: HELP/TYPE shape
    and placement, metric/label name validity, label escaping, value
    parseability, family contiguity, and histogram bucket structure
    (cumulative counts, a [+Inf] bucket matching [_count], [_sum]
    present).  Returns every violation found. *)

type parsed_sample = {
  p_name : string;  (** metric name as written, suffixes included *)
  p_labels : (string * string) list;  (** unescaped, in written order *)
  p_value : float;
}

val parse_sample : line_no:int -> string -> (parsed_sample, string) result
(** Parse one sample line, [name{k="v",...} value [timestamp]]; the error
    names [line_no] and the first fault (name, quoting, escape, value). *)

val counter_samples : string -> parsed_sample list
(** The samples of counter-typed families in a scrape body, in body
    order, read with {!parse_sample}; unparseable lines are skipped
    (they are {!validate}'s business). *)
