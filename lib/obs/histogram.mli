(** Log-bucketed distribution sketches (latency, size distributions).

    Buckets grow geometrically by a factor of [sqrt 2] over a fixed
    global layout, so snapshots from different histograms, domains, or
    processes merge exactly.  Observation is gated on the global
    observability switch and is O(1); quantiles are estimated from the
    bucket layout and clamped into the observed [min, max].  Inside an
    {!Obs.Scope}, observations land in the scope's sink and fold into
    the registry pointwise when the scope closes. *)

type t

val make : string -> t
(** [make name] returns the histogram registered under [name], creating
    it on first use.  Idempotent: the same name yields the same
    histogram. *)

val observe : t -> float -> unit
(** Record one value.  No-op when observability is off or the value is
    NaN; values at or below the smallest bucket bound (including zero
    and negatives) land in bucket 0. *)

val observe_int : t -> int -> unit

(** {1 Snapshots} *)

type snapshot = Sink.snapshot = {
  s_buckets : (int * int) list;  (** sparse (bucket index, count), ascending *)
  s_count : int;
  s_sum : float;
  s_min : float;  (** [infinity] when empty *)
  s_max : float;  (** [neg_infinity] when empty *)
}

val snapshot : t -> snapshot

val snapshot_quantile : snapshot -> float -> float
(** [snapshot_quantile s q] estimates the [q]-quantile
    ([0. <= q <= 1.]) of the recorded values; [0.] when empty.
    Monotone in [q] and always within the observed [min, max]. *)

val snapshot_to_json : snapshot -> Json.t

val nbuckets : int
val bucket_upper : int -> float
(** Upper bound of bucket [i]; [infinity] for the last bucket. *)

val bucket_of : float -> int
(** Bucket index a value lands in; weakly monotone in the value. *)

(** {1 Registry} *)

val all : unit -> (string * snapshot) list
(** All registered histograms, sorted by name. *)

val reset_all : unit -> unit
(** Zero every registered histogram (names stay registered). *)
