(* Log-bucketed distribution sketches with a process-global registry.

   Buckets grow geometrically by sqrt 2 (two buckets per doubling, so a
   quantile read off a bucket upper bound over-estimates by at most
   ~41%), spanning ~1e-9 .. ~3e12 — microsecond latencies and
   million-node expansion volumes land in the same fixed layout, which
   is what makes snapshots mergeable across domains and comparable
   across documents without carrying per-histogram bucket bounds. *)

let nbuckets = 144

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

type t = {
  name : string;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

(* the histogram under [name] in [tbl] (the registry or a scope's
   shard), created empty on first use *)
let find_or_add tbl name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
      let h =
        {
          name;
          counts = Array.make nbuckets 0;
          n = 0;
          sum = 0.;
          mn = infinity;
          mx = neg_infinity;
        }
      in
      Hashtbl.replace tbl name h;
      h

let make name = find_or_add registry name

let name h = h.name
let count h = h.n
let sum h = h.sum

let record h v =
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.mn then h.mn <- v;
  if v > h.mx then h.mx <- v

(* Request-scope shards (Obs.Scope): inside a scope, observations land
   in a domain-local histogram of the same fixed bucket layout and fold
   into the registry when the scope closes — the same pointwise merge
   the snapshot codec uses across documents.  Bucket counts merge
   exactly; [sum] is a float fold, so its last bits depend on merge
   order (doc/OBSERVABILITY.md §Request scopes). *)
type shard = (string, t) Hashtbl.t

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_shard () : shard = Hashtbl.create 16
let set_shard s = Domain.DLS.set shard_key s

let merge_shard sh =
  Hashtbl.iter
    (fun name (local : t) ->
      let h = make name in
      for i = 0 to nbuckets - 1 do
        h.counts.(i) <- h.counts.(i) + local.counts.(i)
      done;
      h.n <- h.n + local.n;
      h.sum <- h.sum +. local.sum;
      if local.mn < h.mn then h.mn <- local.mn;
      if local.mx > h.mx then h.mx <- local.mx)
    sh;
  Hashtbl.reset sh

let observe h v =
  if State.on () && not (Float.is_nan v) then
    match Domain.DLS.get shard_key with
    | None -> record h v
    | Some sh -> record (find_or_add sh h.name) v

let observe_int h v = observe h (float_of_int v)

(* A snapshot is the histogram's plain value: sparse nonzero buckets in
   index order.  Merging is pointwise and exactly commutative (float
   addition of the sums is the only float op, and it is commutative). *)
type snapshot = {
  s_buckets : (int * int) list;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let snapshot h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.counts.(i) > 0 then buckets := (i, h.counts.(i)) :: !buckets
  done;
  { s_buckets = !buckets; s_count = h.n; s_sum = h.sum; s_min = h.mn; s_max = h.mx }

let merge a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (i, ci) :: xs', (j, cj) :: ys' ->
        if i < j then (i, ci) :: go xs' ys
        else if j < i then (j, cj) :: go xs ys'
        else (i, ci + cj) :: go xs' ys'
  in
  {
    s_buckets = go a.s_buckets b.s_buckets;
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum +. b.s_sum;
    s_min = Float.min a.s_min b.s_min;
    s_max = Float.max a.s_max b.s_max;
  }

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

let quantile h q = snapshot_quantile (snapshot h) q

let shard_contents (sh : shard) =
  Hashtbl.fold (fun name h acc -> (name, snapshot h) :: acc) sh []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
let min_value h = if h.n = 0 then None else Some h.mn
let max_value h = if h.n = 0 then None else Some h.mx

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

let snapshot_of_json j =
  let ( let* ) = Result.bind in
  let num = function
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error "histogram: not a number"
  in
  let* count =
    match Json.member "count" j with
    | Some (Json.Int n) when n >= 0 -> Ok n
    | _ -> Error "histogram: missing count"
  in
  let* sum =
    match Json.member "sum" j with
    | Some v -> num v
    | None -> Error "histogram: missing sum"
  in
  let opt k =
    match Json.member k j with
    | Some Json.Null | None -> Ok None
    | Some v -> Result.map Option.some (num v)
  in
  let* mn = opt "min" in
  let* mx = opt "max" in
  let* buckets =
    match Json.member "buckets" j with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            match e with
            | Json.List [ Json.Int i; Json.Int c ]
              when i >= 0 && i < nbuckets && c > 0 ->
                Ok ((i, c) :: acc)
            | _ -> Error "histogram: malformed bucket")
          (Ok []) l
    | _ -> Error "histogram: missing buckets"
  in
  let buckets = List.rev buckets in
  let* () =
    let rec sorted = function
      | (i, _) :: ((j, _) :: _ as rest) ->
          if i < j then sorted rest else Error "histogram: buckets out of order"
      | _ -> Ok ()
    in
    sorted buckets
  in
  let* () =
    if List.fold_left (fun a (_, c) -> a + c) 0 buckets = count then Ok ()
    else Error "histogram: bucket counts do not sum to count"
  in
  Ok
    {
      s_buckets = buckets;
      s_count = count;
      s_sum = sum;
      s_min = Option.value ~default:infinity mn;
      s_max = Option.value ~default:neg_infinity mx;
    }

let find key = Option.map snapshot (Hashtbl.find_opt registry key)

let all () =
  Hashtbl.fold (fun _ h acc -> (h.name, snapshot h) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () =
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.counts 0 nbuckets 0;
      h.n <- 0;
      h.sum <- 0.;
      h.mn <- infinity;
      h.mx <- neg_infinity)
    registry
