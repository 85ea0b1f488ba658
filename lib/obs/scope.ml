(* Request-scoped telemetry: one Scope captures every counter, span,
   histogram and timeline slice recorded during one unit of work (one
   /map request) and folds it into the global sink on close.

   A scope is a fresh sink (Sink) plus an id and resource baselines.
   [run] installs the sink as the calling domain's current one, so its
   hooks never touch the unsynchronized global sink; [close] merges it
   into the global sink (Sink.merge) and keeps its slices in the
   summary. *)

(* Per-scope slice bound.  A TurboMap request on a small suite FSM
   records under 2,000 slices (dk16 K=4: 1,954; s1 K=4: 1,764), and a
   FlowSYN-s request a handful, so those traces stay whole; a TurboSYN
   run (bbara K=5: 10,951) keeps its latest slices and counts the rest
   in [dropped_slices].  The bound also caps what the serve layer's
   recent-request ring retains: 256 requests × 4096 slices. *)
let slice_capacity = 4096

type t = {
  id : string;
  sink : Sink.t;
  started : float;
  (* Resource baselines, captured at create on the domain that will run
     the work (create and close must happen on the same domain for the
     GC deltas to be the domain's own — Sink.gc_now reads the calling
     domain's counters). *)
  gc_at_open : Sink.gc_totals;
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

type summary = {
  sc_id : string;
  sc_started : float;
  sc_finished : float;
  sc_counters : (string * int) list;
  sc_spans : (string * float * int * Span.gc_totals) list;
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
    sink = Sink.create ~capacity:slice_capacity;
    started = Prelude.Timer.wall ();
    gc_at_open = Sink.gc_now ();
    cpu_at_open = Prelude.Timer.cpu ();
    closed = false;
  }

let id t = t.id

(* whether the calling domain is inside some scope's [run] *)
let running () = Sink.current () != Sink.global

let run t f =
  if t.closed then invalid_arg "Obs.Scope.run: scope already closed";
  if running () then
    invalid_arg "Obs.Scope.run: this domain already runs a scope";
  Sink.install t.sink;
  Fun.protect
    ~finally:(fun () -> Sink.install Sink.global)
    (fun () -> Log.with_request_id t.id f)

let close ?(queue_wait = 0.) t =
  if t.closed then invalid_arg "Obs.Scope.close: scope already closed";
  if running () then invalid_arg "Obs.Scope.close: called inside a scope's run";
  t.closed <- true;
  let finished = Prelude.Timer.wall () in
  let resources =
    let gc = Sink.gc_add_since Sink.gc_zero t.gc_at_open in
    let pos f = Float.max 0. f in
    {
      r_cpu_seconds = pos (Prelude.Timer.cpu () -. t.cpu_at_open);
      r_minor_words = pos gc.minor_words;
      r_promoted_words = pos gc.promoted_words;
      r_major_words = pos gc.major_words;
      r_queue_wait = pos queue_wait;
    }
  in
  let summary =
    {
      sc_id = t.id;
      sc_started = t.started;
      sc_finished = finished;
      sc_counters = Sink.counters t.sink;
      sc_spans = Sink.spans t.sink;
      sc_histograms = Sink.histograms t.sink;
      sc_slices = Sink.slices t.sink;
      sc_dropped_slices = t.sink.dropped;
      sc_resources = resources;
    }
  in
  Sink.merge ~into:Sink.global t.sink;
  Atomic.decr State.open_scopes;
  summary

let wrap ?id f =
  (* refuse before opening: a scope that cannot run could not close *)
  if running () then
    invalid_arg "Obs.Scope.wrap: this domain already runs a scope";
  let t = create ?id () in
  match run t (fun () -> f t) with
  | v -> (v, close t)
  | exception e ->
      ignore (close t);
      raise e

let summary_json s =
  Json.Obj
    [
      ("id", Json.Str s.sc_id);
      ("started", Json.Float s.sc_started);
      ("finished", Json.Float s.sc_finished);
      ("seconds", Json.Float (s.sc_finished -. s.sc_started));
      ("counters", Report.counters_json s.sc_counters);
      ("spans", Report.spans_json s.sc_spans);
      ("histograms", Report.histograms_json s.sc_histograms);
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
