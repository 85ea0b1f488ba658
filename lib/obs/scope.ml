(* Request-scoped telemetry: one Scope captures every counter, span,
   histogram and timeline slice recorded during one unit of work (one
   /map request, one CLI run) and folds it into the global registries
   on close.

   Built on the Shard machinery (doc/CONCURRENCY.md): a scope owns one
   shard, installed on the serving domain for the duration of the work.
   A parallel phase inside the scope creates its own lane shards as
   always; their barrier merge resolves through the domain-local sink,
   so lane work lands in the scope and reaches the registries when the
   scope itself merges — counters by sum, peaks by max, histogram
   buckets pointwise, all associative, so global totals are the same
   whether a scope interposes or not, for every --jobs N. *)

type t = {
  id : string;
  shard : Shard.t;
  started : float;
  (* Resource baselines, captured at create on the domain that will run
     the work (create and close must happen on the same domain for the
     GC deltas to be the domain's own — quick_stat is per-domain).
     Minor words come from Gc.minor_words: quick_stat's count only
     advances at a minor collection on OCaml 5, so its delta over a short
     scope reads 0 or a whole minor heap. *)
  gc_at_open : Gc.stat;
  minor_at_open : float;
  cpu_at_open : float;
  mutable closed : bool;
}

(* Per-request resource deltas.  GC words are the opening domain's own
   allocation (monotone counters, so deltas are non-negative and a
   parent scope's delta bounds the sum of its sequential children's —
   the additivity property qcheck exercises).  CPU seconds are
   process-wide processor time (Prelude.Timer.cpu): exact when one
   request runs alone, an upper bound under concurrent workers — an
   honest queueing signal either way.  Queue wait is supplied by the
   caller (the serve layer measures it from enqueue to dequeue). *)
type resources = {
  r_cpu_seconds : float;
  r_minor_words : float;
  r_promoted_words : float;
  r_major_words : float;
  r_queue_wait : float;
}

let zero_resources =
  {
    r_cpu_seconds = 0.;
    r_minor_words = 0.;
    r_promoted_words = 0.;
    r_major_words = 0.;
    r_queue_wait = 0.;
  }

type summary = {
  sc_id : string;
  sc_started : float;
  sc_finished : float;
  sc_counters : (string * int) list;
  sc_spans : (string * float * int) list;
  sc_histograms : (string * Histogram.snapshot) list;
  sc_slices : Timeline.slice list;
  sc_dropped_slices : int;
  sc_resources : resources;
}

(* Correlation ids: 16 lower-case hex chars (the shape of a traceparent
   span-id).  A per-process random prefix (hashed from the startup
   clock) plus an atomic sequence number — unique within a process,
   collision-unlikely across concurrent processes. *)
let seq = Atomic.make 0

let id_prefix =
  lazy
    (Printf.sprintf "%07x"
       (Hashtbl.hash (Prelude.Timer.wall ()) land 0xFFFFFFF))

let fresh_id () =
  Printf.sprintf "%s%09x" (Lazy.force id_prefix)
    (Atomic.fetch_and_add seq 1 land 0xFFFFFFFFF)

let create ?id () =
  let id =
    match id with Some s when s <> "" -> s | _ -> fresh_id ()
  in
  {
    id;
    shard = Shard.create ();
    started = Prelude.Timer.wall ();
    gc_at_open = Gc.quick_stat ();
    minor_at_open = Gc.minor_words ();
    cpu_at_open = Prelude.Timer.cpu ();
    closed = false;
  }

let id t = t.id
let started t = t.started

let run t f =
  if t.closed then invalid_arg "Obs.Scope.run: scope already closed";
  Log.with_request_id t.id (fun () -> Shard.wrap t.shard f)

let close ?(queue_wait = 0.) t =
  if t.closed then invalid_arg "Obs.Scope.close: scope already closed";
  t.closed <- true;
  let finished = Prelude.Timer.wall () in
  let resources =
    let gc1 = Gc.quick_stat () in
    let pos f = Float.max 0. f in
    {
      r_cpu_seconds = pos (Prelude.Timer.cpu () -. t.cpu_at_open);
      r_minor_words = pos (Gc.minor_words () -. t.minor_at_open);
      r_promoted_words =
        pos (gc1.Gc.promoted_words -. t.gc_at_open.Gc.promoted_words);
      r_major_words = pos (gc1.Gc.major_words -. t.gc_at_open.Gc.major_words);
      r_queue_wait = pos queue_wait;
    }
  in
  let summary =
    {
      sc_id = t.id;
      sc_started = t.started;
      sc_finished = finished;
      sc_counters = Counter.shard_contents (Shard.counters t.shard);
      sc_spans =
        List.map
          (fun (n, s, e, _gc) -> (n, s, e))
          (Span.shard_contents (Shard.spans t.shard));
      sc_histograms = Histogram.shard_contents (Shard.histograms t.shard);
      sc_slices = Timeline.shard_slices (Shard.timeline t.shard);
      sc_dropped_slices = Timeline.shard_dropped (Shard.timeline t.shard);
      sc_resources = resources;
    }
  in
  Shard.merge t.shard;
  Shard.release t.shard;
  summary

let wrap ?id f =
  let t = create ?id () in
  match run t (fun () -> f t) with
  | v -> (v, close t)
  | exception e ->
      ignore (close t);
      raise e

let span_seconds summary name =
  List.find_map
    (fun (n, s, _) -> if String.equal n name then Some s else None)
    summary.sc_spans

let summary_json s =
  Json.Obj
    [
      ("id", Json.Str s.sc_id);
      ("started", Json.Float s.sc_started);
      ("finished", Json.Float s.sc_finished);
      ("seconds", Json.Float (s.sc_finished -. s.sc_started));
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.sc_counters) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (n, secs, entries) ->
               ( n,
                 Json.Obj
                   [
                     ("seconds", Json.Float secs);
                     ("entries", Json.Int entries);
                   ] ))
             s.sc_spans) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, snap) -> (n, Histogram.snapshot_to_json snap))
             s.sc_histograms) );
      ( "slices",
        Json.List
          (List.map
             (fun (sl : Timeline.slice) ->
               Json.Obj
                 [
                   ("name", Json.Str sl.Timeline.name);
                   ("start", Json.Float sl.Timeline.start);
                   ("stop", Json.Float sl.Timeline.stop);
                 ])
             s.sc_slices) );
      ("dropped_slices", Json.Int s.sc_dropped_slices);
      ( "resources",
        Json.Obj
          [
            ("cpu_seconds", Json.Float s.sc_resources.r_cpu_seconds);
            ("minor_words", Json.Float s.sc_resources.r_minor_words);
            ("promoted_words", Json.Float s.sc_resources.r_promoted_words);
            ("major_words", Json.Float s.sc_resources.r_major_words);
            ("queue_wait_seconds", Json.Float s.sc_resources.r_queue_wait);
          ] );
    ]
