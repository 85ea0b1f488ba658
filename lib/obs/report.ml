let schema_version = "turbosyn-stats/3"

(* The metric objects of the stats document, over any sink's contents:
   the global registry here, one request's in Scope.summary_json. *)
let counters_json counters =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters)

let spans_json spans =
  Json.Obj
    (List.map
       (fun (name, seconds, entries, (gc : Span.gc_totals)) ->
         ( name,
           Json.Obj
             [
               ("seconds", Json.Float seconds);
               ("entries", Json.Int entries);
               ( "gc",
                 Json.Obj
                   [
                     ("minor_words", Json.Float gc.minor_words);
                     ("promoted_words", Json.Float gc.promoted_words);
                     ("major_words", Json.Float gc.major_words);
                   ] );
             ] ))
       spans)

let histograms_json histograms =
  Json.Obj
    (List.map
       (fun (name, s) -> (name, Histogram.snapshot_to_json s))
       histograms)

let stats_json ?(extra = []) () =
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("enabled", Json.Bool (State.enabled ()));
     ]
    @ extra
    @ [
        ("counters", counters_json (Counter.all ()));
        ( "gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (Gauge.all ()))
        );
        ("spans", spans_json (Span.all_full ()));
        ("histograms", histograms_json (Histogram.all ()));
      ])

let write_stats ?extra dest =
  Flame.write dest (Json.to_pretty_string (stats_json ?extra ()) ^ "\n")

(* Chrome-trace ("Trace Event Format") document over the timeline slices
   and the log ring; loads in Perfetto and chrome://tracing.  One
   process/track; "X" complete events for span activations (they nest in
   time on the single thread), "i" instants for log records.  Timestamps
   are microseconds relative to the earliest recorded point. *)
let timeline_json ?slices ?events () =
  let slices =
    match slices with Some s -> s | None -> Timeline.slices ()
  in
  let events = match events with Some e -> e | None -> Log.recent () in
  let t0 =
    List.fold_left
      (fun acc (s : Timeline.slice) -> Float.min acc s.start)
      (List.fold_left
         (fun acc (r : Log.record) -> Float.min acc r.ts)
         infinity events)
      slices
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let us t = (t -. t0) *. 1e6 in
  let common name ph =
    [
      ("name", Json.Str name);
      ("ph", Json.Str ph);
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
    ]
  in
  (* metadata events name the track: Perfetto and chrome://tracing show
     "turbosyn / synthesis pipeline" instead of bare pid/tid numbers *)
  let meta_events =
    [
      Json.Obj
        (common "process_name" "M"
        @ [ ("args", Json.Obj [ ("name", Json.Str "turbosyn") ]) ]);
      Json.Obj
        (common "thread_name" "M"
        @ [ ("args", Json.Obj [ ("name", Json.Str "synthesis pipeline") ]) ]);
    ]
  in
  let slice_events =
    List.map
      (fun (s : Timeline.slice) ->
        Json.Obj
          (common s.Timeline.name "X"
          @ [
              ("cat", Json.Str "span");
              ("ts", Json.Float (us s.Timeline.start));
              ("dur", Json.Float ((s.Timeline.stop -. s.Timeline.start) *. 1e6));
            ]))
      slices
  in
  let instant_events =
    List.map
      (fun (r : Log.record) ->
        Json.Obj
          (common r.Log.event "i"
          @ [
              ("cat", Json.Str "event");
              ("ts", Json.Float (us r.Log.ts));
              ("s", Json.Str "t");
              ("args", Json.Obj r.Log.fields);
            ]))
      events
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta_events @ slice_events @ instant_events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_timeline dest =
  Flame.write dest (Json.to_string (timeline_json ()) ^ "\n")
