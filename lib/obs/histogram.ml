(* Log-bucketed distribution sketches with a process-global registry.

   Buckets grow geometrically by sqrt 2 (two buckets per doubling, so a
   quantile read off a bucket upper bound over-estimates by at most
   ~41%), spanning ~1e-9 .. ~3e12 — microsecond latencies and
   million-node expansion volumes land in the same fixed layout, which
   is what makes snapshots mergeable across domains and comparable
   across documents without carrying per-histogram bucket bounds. *)

let nbuckets = Sink.nbuckets

(* upper bound of bucket [i]: 2^((i - 60) / 2); bucket 0 also absorbs
   everything at or below its bound (including zero and negatives) *)
let bucket_upper i =
  if i >= nbuckets - 1 then infinity
  else 2.0 ** (float_of_int (i - 60) /. 2.0)

let bucket_of v =
  if not (v > bucket_upper 0) then 0
  else
    let i = 60 + int_of_float (Float.ceil (2.0 *. Float.log2 v)) in
    if i < 0 then 0 else if i > nbuckets - 1 then nbuckets - 1 else i

(* A histogram is a name and the slot its cell has in every sink (Sink):
   observations land in the calling domain's current sink, readers read
   the global one.  A scope's cells fold into the global ones pointwise
   when it closes: bucket counts merge exactly, [sum] is a float fold
   whose last bits depend on merge order (doc/OBSERVABILITY.md §Request
   scopes). *)
type t = Sink.id = { name : string; slot : int }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let make = Sink.register registry Sink.hist

let observe h v =
  if State.on () && not (Float.is_nan v) then begin
    let c = Sink.current_hist h in
    let b = bucket_of v in
    c.counts.(b) <- c.counts.(b) + 1;
    c.n <- c.n + 1;
    c.sum <- c.sum +. v;
    if v < c.mn then c.mn <- v;
    if v > c.mx then c.mx <- v
  end

let observe_int h v = observe h (float_of_int v)

(* A snapshot is the histogram's plain value: sparse nonzero buckets in
   index order. *)
type snapshot = Sink.snapshot = {
  s_buckets : (int * int) list;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let snapshot h = Sink.snapshot (Sink.hist h)

(* Quantile estimate: the upper bound of the first bucket whose
   cumulative count reaches ceil(q * n), clamped into [min, max] of the
   observed values.  Monotone in q by construction (cumulative counts
   and bucket bounds both increase), so p50 <= p90 <= p99 <= max. *)
let snapshot_quantile s q =
  if s.s_count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target =
      max 1 (int_of_float (Float.ceil (q *. float_of_int s.s_count)))
    in
    let rec find acc = function
      | [] -> s.s_max
      | (i, c) :: rest ->
          if acc + c >= target then bucket_upper i else find (acc + c) rest
    in
    let v = find 0 s.s_buckets in
    Float.max s.s_min (Float.min s.s_max v)
  end

let snapshot_to_json s =
  let fin f = if Float.is_finite f then Json.Float f else Json.Null in
  Json.Obj
    [
      ("count", Json.Int s.s_count);
      ("sum", Json.Float s.s_sum);
      ("min", (if s.s_count = 0 then Json.Null else fin s.s_min));
      ("max", (if s.s_count = 0 then Json.Null else fin s.s_max));
      ("p50", Json.Float (snapshot_quantile s 0.5));
      ("p90", Json.Float (snapshot_quantile s 0.9));
      ("p99", Json.Float (snapshot_quantile s 0.99));
      ( "buckets",
        Json.List
          (List.map
             (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
             s.s_buckets) );
    ]

let all () = Sink.histograms Sink.global
let reset_all () = Sink.reset_hists Sink.global
