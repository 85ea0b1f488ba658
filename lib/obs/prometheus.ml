(* Prometheus text exposition format (version 0.0.4) over the metric
   registries.  The renderer is what [turbosyn serve] returns from
   /metrics; the strict validator the scrape tests hold it to lives
   with the tests (test/prom_oracle). *)

let prefix = "turbosyn_"

(* dotted registry names -> prometheus metric names *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* shortest float form that survives the round trip; integral values
   render without an exponent so counters read naturally *)
let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let fmt_le v =
  if v = infinity then "+Inf" else Printf.sprintf "%.9g" v

type sample = { labels : (string * string) list; value : float }

type family = {
  fname : string; (* without the [prefix]; sanitized by the renderer *)
  fhelp : string;
  ftype : [ `Counter | `Gauge ];
  samples : sample list;
}

(* one family: HELP, TYPE, then "<name><suffix><labels> <value>" lines *)
let add_family buf ~name ~help ~mtype samples =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name mtype);
  List.iter
    (fun (suffix, labels, v) ->
      let labels_s =
        match labels with
        | [] -> ""
        | ls ->
            "{"
            ^ String.concat ","
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "%s=\"%s\"" k (escape_label v))
                   ls)
            ^ "}"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s%s %s\n" name suffix labels_s (fmt_value v)))
    samples

let render ?(exclude_prefixes = []) ?(extra = []) () =
  let buf = Buffer.create 8192 in
  let excluded name =
    List.exists
      (fun p ->
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p)
      exclude_prefixes
  in
  (* event counters, one family each; [exclude_prefixes] skips counter
     namespaces a caller re-renders as a labeled family via [extra]
     (e.g. the serve layer's per-route/status request counters) *)
  List.iter
    (fun (name, v) ->
      if not (excluded name) then
        add_family buf
          ~name:(prefix ^ sanitize name ^ "_total")
          ~help:(Printf.sprintf "Event counter %s." name)
          ~mtype:"counter"
          [ ("", [], float_of_int v) ])
    (Counter.all ());
  (* gauges *)
  List.iter
    (fun (name, v) ->
      add_family buf
        ~name:(prefix ^ sanitize name)
        ~help:(Printf.sprintf "Gauge %s." name)
        ~mtype:"gauge"
        [ ("", [], v) ])
    (Gauge.all ());
  (* spans become labeled families: one series per phase.  The [phase]
     label carries the raw dotted name, exercising label escaping *)
  let spans = Span.all_full () in
  if spans <> [] then begin
    let series f =
      List.map (fun (name, sec, n, gc) -> (name, f sec n gc)) spans
    in
    let labeled vs =
      List.map (fun (name, v) -> ("", [ ("phase", name) ], v)) vs
    in
    add_family buf
      ~name:(prefix ^ "phase_seconds_total")
      ~help:"Wall seconds accumulated per phase span." ~mtype:"counter"
      (labeled (series (fun sec _ _ -> sec)));
    add_family buf
      ~name:(prefix ^ "phase_entries_total")
      ~help:"Completed outermost entries per phase span." ~mtype:"counter"
      (labeled (series (fun _ n _ -> float_of_int n)));
    add_family buf
      ~name:(prefix ^ "phase_minor_words_total")
      ~help:"Minor-heap words allocated inside each phase span."
      ~mtype:"counter"
      (labeled (series (fun _ _ gc -> gc.Span.minor_words)));
    add_family buf
      ~name:(prefix ^ "phase_promoted_words_total")
      ~help:"Words promoted to the major heap inside each phase span."
      ~mtype:"counter"
      (labeled (series (fun _ _ gc -> gc.Span.promoted_words)));
    add_family buf
      ~name:(prefix ^ "phase_major_words_total")
      ~help:"Major-heap words allocated inside each phase span."
      ~mtype:"counter"
      (labeled (series (fun _ _ gc -> gc.Span.major_words)))
  end;
  (* histograms: cumulative le buckets (observed boundaries plus +Inf),
     then _sum and _count, per the exposition format *)
  List.iter
    (fun (name, (s : Histogram.snapshot)) ->
      let fam = prefix ^ sanitize name in
      let buckets, _ =
        List.fold_left
          (fun (acc, cum) (i, c) ->
            let cum = cum + c in
            ( ( "_bucket",
                [ ("le", fmt_le (Histogram.bucket_upper i)) ],
                float_of_int cum )
              :: acc,
              cum ))
          ([], 0) s.Histogram.s_buckets
      in
      let buckets =
        List.rev
          (("_bucket", [ ("le", "+Inf") ], float_of_int s.Histogram.s_count)
          :: buckets)
      in
      (* drop a duplicate +Inf when the top bucket was already infinite *)
      let buckets =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun (_, labels, _) ->
            match labels with
            | [ ("le", le) ] ->
                if Hashtbl.mem seen le then false
                else begin
                  Hashtbl.replace seen le ();
                  true
                end
            | _ -> true)
          buckets
      in
      add_family buf ~name:fam
        ~help:(Printf.sprintf "Distribution %s." name)
        ~mtype:"histogram"
        (buckets
        @ [
            ("_sum", [], s.Histogram.s_sum);
            ("_count", [], float_of_int s.Histogram.s_count);
          ]))
    (Histogram.all ());
  (* caller-provided families (e.g. the serve request counters) *)
  List.iter
    (fun f ->
      add_family buf
        ~name:(prefix ^ sanitize f.fname)
        ~help:f.fhelp
        ~mtype:(match f.ftype with `Counter -> "counter" | `Gauge -> "gauge")
        (List.map (fun s -> ("", s.labels, s.value)) f.samples))
    extra;
  Buffer.contents buf

(* Values of the counter-typed samples of a body this module rendered,
   keyed by their literal series text (name plus label block, the text
   before the last space) — the stable key for cross-scrape
   monotonicity checks.  A family's samples follow its TYPE line, so
   each sample belongs to the family of the last TYPE seen. *)
let counter_values body =
  let counter = ref false in
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | "#" :: "TYPE" :: _ :: [ ty ] ->
             counter := ty = "counter";
             None
         | _ when !counter && line <> "" && line.[0] <> '#' -> (
             match String.rindex_opt line ' ' with
             | None -> None
             | Some i ->
                 Option.map
                   (fun v -> (String.sub line 0 i, v))
                   (float_of_string_opt
                      (String.sub line (i + 1) (String.length line - i - 1))))
         | _ -> None)
