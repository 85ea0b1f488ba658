(* Prometheus text exposition format (version 0.0.4) over the metric
   registries, plus the sample parser that reads a scrape back.  The
   renderer is what [turbosyn serve] returns from /metrics; the strict
   validator the scrape tests hold it to lives with the tests and is
   built on [parse_sample] and [family_of]. *)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let valid_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

(* a sample's family: strip the histogram sample suffixes *)
let family_of typed name =
  let strip suffix =
    if
      String.length name > String.length suffix
      && String.sub name
           (String.length name - String.length suffix)
           (String.length suffix)
         = suffix
    then
      let base =
        String.sub name 0 (String.length name - String.length suffix)
      in
      if Hashtbl.find_opt typed base = Some "histogram" then Some base
      else None
    else None
  in
  match strip "_bucket" with
  | Some b -> b
  | None -> (
      match strip "_sum" with
      | Some b -> b
      | None -> ( match strip "_count" with Some b -> b | None -> name))

type parsed_sample = {
  p_name : string; (* metric name as written, suffixes included *)
  p_labels : (string * string) list;
  p_value : float;
}

(* parse `name{k="v",...} value` — returns errors rather than raising *)
let parse_sample ~line_no line =
  let err msg = Error (Printf.sprintf "line %d: %s" line_no msg) in
  let n = String.length line in
  let rec name_end i = if i < n && is_name_char line.[i] then name_end (i + 1) else i in
  let ne = name_end 0 in
  if ne = 0 then err "sample line does not start with a metric name"
  else
    let name = String.sub line 0 ne in
    if not (valid_name name) then err ("invalid metric name " ^ name)
    else
      let labels_and_rest =
        if ne < n && line.[ne] = '{' then begin
          (* scan the label block honouring escapes *)
          let buf = Buffer.create 16 in
          let labels = ref [] in
          let key = ref "" in
          let state = ref `Key in
          let i = ref (ne + 1) in
          let error = ref None in
          let finished = ref (-1) in
          while !finished < 0 && !error = None && !i < n do
            let c = line.[!i] in
            (match !state with
            | `Key ->
                if c = '}' && Buffer.length buf = 0 && !labels <> [] then
                  finished := !i + 1
                else if c = '=' then begin
                  key := Buffer.contents buf;
                  Buffer.clear buf;
                  if not (valid_name !key) then
                    error := Some ("invalid label name " ^ !key)
                  else state := `Quote
                end
                else Buffer.add_char buf c
            | `Quote ->
                if c = '"' then state := `Value
                else error := Some "label value is not quoted"
            | `Value ->
                if c = '\\' then state := `Escape
                else if c = '"' then begin
                  labels := (!key, Buffer.contents buf) :: !labels;
                  Buffer.clear buf;
                  state := `Sep
                end
                else if c = '\n' then
                  error := Some "raw newline in label value"
                else Buffer.add_char buf c
            | `Escape ->
                (match c with
                | '\\' -> Buffer.add_char buf '\\'
                | '"' -> Buffer.add_char buf '"'
                | 'n' -> Buffer.add_char buf '\n'
                | c ->
                    error :=
                      Some (Printf.sprintf "invalid escape \\%c in label value" c));
                state := `Value
            | `Sep ->
                if c = ',' then state := `Key
                else if c = '}' then finished := !i + 1
                else error := Some "expected ',' or '}' after label value");
            incr i
          done;
          match !error with
          | Some e -> Error e
          | None ->
              if !finished < 0 then Error "unterminated label block"
              else Ok (List.rev !labels, !finished)
        end
        else Ok ([], ne)
      in
      match labels_and_rest with
      | Error e -> err e
      | Ok (labels, rest_at) ->
          let rest = String.sub line rest_at (n - rest_at) in
          let rest = String.trim rest in
          let value_str =
            match String.index_opt rest ' ' with
            | Some i -> String.sub rest 0 i (* optional timestamp follows *)
            | None -> rest
          in
          let value =
            match value_str with
            | "+Inf" -> Some infinity
            | "-Inf" -> Some neg_infinity
            | "NaN" -> Some Float.nan
            | s -> float_of_string_opt s
          in
          (match value with
          | None -> err (Printf.sprintf "unparseable value %S" value_str)
          | Some v -> Ok { p_name = name; p_labels = labels; p_value = v })

(* Values of counter-typed samples keyed by their literal series text
   (name plus label block) — the stable key for cross-scrape
   monotonicity checks. *)
let counter_values body =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let out = ref [] in
  let lines = String.split_on_char '\n' body in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      if String.length line > 0 && line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: ty :: [] -> Hashtbl.replace typed name ty
        | _ -> ())
      else if line <> "" then
        match parse_sample ~line_no line with
        | Error _ -> ()
        | Ok s ->
            if Hashtbl.find_opt typed (family_of typed s.p_name) = Some "counter"
            then begin
              let key =
                s.p_name
                ^
                match s.p_labels with
                | [] -> ""
                | ls ->
                    "{"
                    ^ String.concat ","
                        (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
                    ^ "}"
              in
              out := (key, s.p_value) :: !out
            end)
    lines;
  List.rev !out
