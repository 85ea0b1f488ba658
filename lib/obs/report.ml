let schema_version = "turbosyn-stats/2"

let counters_json () =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (Counter.all ()))

let gauges_json () =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) (Gauge.all ()))

let spans_json () =
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
                     ("minor_words", Json.Float gc.Span.minor_words);
                     ("promoted_words", Json.Float gc.Span.promoted_words);
                     ("major_words", Json.Float gc.Span.major_words);
                     ("compactions", Json.Int gc.Span.compactions);
                   ] );
             ] ))
       (Span.all_full ()))

let histograms_json () =
  Json.Obj
    (List.map
       (fun (name, s) -> (name, Histogram.snapshot_to_json s))
       (Histogram.all ()))

let stats_json ?(extra = []) () =
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("enabled", Json.Bool (State.enabled ()));
     ]
    @ extra
    @ [
        ("counters", counters_json ());
        ("gauges", gauges_json ());
        ("spans", spans_json ());
        ("histograms", histograms_json ());
      ])

let write_stats ?extra dest =
  let json = stats_json ?extra () in
  let s = Json.to_pretty_string json in
  if dest = "-" then print_endline s
  else begin
    let oc = open_out dest in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc s;
        output_char oc '\n')
  end

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
  let s = Json.to_string (timeline_json ()) in
  if dest = "-" then print_endline s
  else begin
    let oc = open_out dest in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc s;
        output_char oc '\n')
  end
