(* A strict checker for Prometheus text exposition (format 0.0.4), the
   oracle the scrape tests and the [promcheck] executable hold
   [Obs.Prometheus.render] and the serve /metrics body to.  It owns the
   strict sample parser; [Obs.Prometheus.counter_values] only scans
   the renderer's own output. *)

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

(* the samples of counter-typed families, in body order *)
let counter_samples body =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 32 in
  String.split_on_char '\n' body
  |> List.mapi (fun idx line -> (idx + 1, line))
  |> List.filter_map (fun (line_no, line) ->
         if line = "" then None
         else if line.[0] = '#' then begin
           (match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; ty ] -> Hashtbl.replace typed name ty
           | _ -> ());
           None
         end
         else
           match parse_sample ~line_no line with
           | Ok s
             when Hashtbl.find_opt typed (family_of typed s.p_name)
                  = Some "counter" ->
               Some s
           | _ -> None)

let known_types = [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]

let validate body =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let typed : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let helped : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let samples : parsed_sample list ref = ref [] in
  let family_order : string list ref = ref [] in
  let last_family = ref "" in
  let note_family fam line_no =
    if fam <> !last_family then begin
      if List.mem fam !family_order then
        add
          (Printf.sprintf "line %d: samples of family %s are not contiguous"
             line_no fam)
      else family_order := fam :: !family_order;
      last_family := fam
    end
  in
  let lines = String.split_on_char '\n' body in
  List.iteri
    (fun idx line ->
      let line_no = idx + 1 in
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ :: _ ->
            if not (valid_name name) then
              add
                (Printf.sprintf "line %d: invalid metric name in HELP: %s"
                   line_no name)
            else if Hashtbl.mem helped name then
              add (Printf.sprintf "line %d: duplicate HELP for %s" line_no name)
            else Hashtbl.replace helped name ()
        | "#" :: "HELP" :: _ ->
            add (Printf.sprintf "line %d: malformed HELP line" line_no)
        | "#" :: "TYPE" :: name :: ty :: [] ->
            if not (valid_name name) then
              add
                (Printf.sprintf "line %d: invalid metric name in TYPE: %s"
                   line_no name)
            else if not (List.mem ty known_types) then
              add (Printf.sprintf "line %d: unknown type %s" line_no ty)
            else if Hashtbl.mem typed name then
              add (Printf.sprintf "line %d: duplicate TYPE for %s" line_no name)
            else begin
              if
                List.exists
                  (fun s -> family_of typed s.p_name = name)
                  !samples
              then
                add
                  (Printf.sprintf
                     "line %d: TYPE for %s appears after its samples" line_no
                     name);
              Hashtbl.replace typed name ty
            end
        | "#" :: "TYPE" :: _ ->
            add (Printf.sprintf "line %d: malformed TYPE line" line_no)
        | _ -> () (* plain comment *)
      end
      else
        match parse_sample ~line_no line with
        | Error e -> add e
        | Ok s ->
            let fam = family_of typed s.p_name in
            if not (Hashtbl.mem typed fam) then
              add
                (Printf.sprintf "line %d: sample %s has no TYPE declaration"
                   line_no s.p_name)
            else note_family fam line_no;
            samples := s :: !samples)
    lines;
  let samples = List.rev !samples in
  (* histogram structure *)
  Hashtbl.iter
    (fun fam ty ->
      if ty = "histogram" then begin
        let of_suffix suffix =
          List.filter (fun s -> s.p_name = fam ^ suffix) samples
        in
        let buckets = of_suffix "_bucket" in
        let les =
          List.filter_map
            (fun s ->
              match List.assoc_opt "le" s.p_labels with
              | Some le -> (
                  match le with
                  | "+Inf" -> Some (infinity, s.p_value)
                  | l -> (
                      match float_of_string_opt l with
                      | Some f -> Some (f, s.p_value)
                      | None ->
                          add
                            (Printf.sprintf
                               "histogram %s: unparseable le %S" fam l);
                          None))
              | None ->
                  add
                    (Printf.sprintf
                       "histogram %s: _bucket sample without le label" fam);
                  None)
            buckets
        in
        if les = [] then
          add (Printf.sprintf "histogram %s: no _bucket samples" fam)
        else begin
          if not (List.exists (fun (le, _) -> le = infinity) les) then
            add (Printf.sprintf "histogram %s: missing +Inf bucket" fam);
          let sorted =
            List.sort (fun (a, _) (b, _) -> Float.compare a b) les
          in
          let rec check_cumulative = function
            | (_, c1) :: ((_, c2) :: _ as rest) ->
                if c2 < c1 then
                  add
                    (Printf.sprintf
                       "histogram %s: bucket counts are not cumulative" fam);
                check_cumulative rest
            | _ -> ()
          in
          check_cumulative sorted;
          match (of_suffix "_count", List.rev sorted) with
          | [ c ], (le_top, top) :: _ when le_top = infinity ->
              if c.p_value <> top then
                add
                  (Printf.sprintf
                     "histogram %s: _count does not equal the +Inf bucket" fam)
          | [], _ -> add (Printf.sprintf "histogram %s: missing _count" fam)
          | _ :: _ :: _, _ ->
              add (Printf.sprintf "histogram %s: duplicate _count" fam)
          | _ -> ()
        end;
        if of_suffix "_sum" = [] then
          add (Printf.sprintf "histogram %s: missing _sum" fam)
      end)
    typed;
  match List.rev !errors with [] -> Ok () | es -> Error es

