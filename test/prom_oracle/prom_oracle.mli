(** Test oracle for the Prometheus text exposition format (0.0.4). *)

val validate : string -> (unit, string list) result
(** Check a scrape body against the exposition format: HELP/TYPE shape
    and placement, metric/label name validity, label escaping, value
    parseability, family contiguity, and histogram bucket structure
    (cumulative counts, a [+Inf] bucket matching [_count], [_sum]
    present).  Returns every violation found. *)
