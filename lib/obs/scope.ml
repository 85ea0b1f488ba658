(* Request-scoped telemetry: one Scope captures every counter, span,
   histogram and timeline slice recorded during one unit of work (one
   /map request) and folds it into the global registries on close.

   A scope owns the only domain-local sink: one shard of each registry
   (Counter, Histogram, Span, Timeline), installed on the calling domain
   for the duration of [run], so its hooks never touch the
   unsynchronized globals.  [close] folds the shards into the
   registries — counters by sum, peaks by max, histogram buckets
   pointwise, all associative, so global totals are the same whether a
   scope interposes or not. *)

type t = {
  id : string;
  counters : Counter.shard;
  histograms : Histogram.shard;
  spans : Span.shard;
  timeline : Timeline.shard;
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
   allocation (monotone counters, so deltas are non-negative, and a
   scope left open while others open and close in sequence on the same
   domain bounds the sum of their deltas — the additivity property
   qcheck exercises).  CPU seconds are process-wide processor time
   (Prelude.Timer.cpu): exact when one request runs alone, an upper
   bound under concurrent workers — an honest queueing signal either
   way.  Queue wait is supplied by the caller (the serve layer measures
   it from enqueue to dequeue). *)
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
  Atomic.incr State.open_scopes;
  {
    id;
    counters = Counter.new_shard ();
    histograms = Histogram.new_shard ();
    spans = Span.new_shard ();
    timeline = Timeline.new_shard ();
    started = Prelude.Timer.wall ();
    gc_at_open = Gc.quick_stat ();
    minor_at_open = Gc.minor_words ();
    cpu_at_open = Prelude.Timer.cpu ();
    closed = false;
  }

let id t = t.id
let started t = t.started

(* whether the calling domain is inside some scope's [run] *)
let running : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let run t f =
  if t.closed then invalid_arg "Obs.Scope.run: scope already closed";
  if Domain.DLS.get running then
    invalid_arg "Obs.Scope.run: this domain already runs a scope";
  Domain.DLS.set running true;
  Counter.set_shard (Some t.counters);
  Histogram.set_shard (Some t.histograms);
  Span.set_shard (Some t.spans);
  Timeline.set_shard (Some t.timeline);
  Fun.protect
    ~finally:(fun () ->
      Counter.set_shard None;
      Histogram.set_shard None;
      Span.set_shard None;
      Timeline.set_shard None;
      Domain.DLS.set running false)
    (fun () -> Log.with_request_id t.id f)

let close ?(queue_wait = 0.) t =
  if t.closed then invalid_arg "Obs.Scope.close: scope already closed";
  if Domain.DLS.get running then
    invalid_arg "Obs.Scope.close: called inside a scope's run";
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
      sc_counters = Counter.shard_contents t.counters;
      sc_spans =
        List.map
          (fun (n, s, e, _gc) -> (n, s, e))
          (Span.shard_contents t.spans);
      sc_histograms = Histogram.shard_contents t.histograms;
      sc_slices = Timeline.shard_slices t.timeline;
      sc_dropped_slices = Timeline.shard_dropped t.timeline;
      sc_resources = resources;
    }
  in
  Counter.merge_shard t.counters;
  Histogram.merge_shard t.histograms;
  Span.merge_shard t.spans;
  Timeline.merge_shard t.timeline;
  Atomic.decr State.open_scopes;
  summary

let wrap ?id f =
  (* refuse before opening: a scope that cannot run could not close *)
  if Domain.DLS.get running then
    invalid_arg "Obs.Scope.wrap: this domain already runs a scope";
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
