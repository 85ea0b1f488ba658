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
