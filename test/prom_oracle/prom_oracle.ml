(* A strict checker for Prometheus text exposition (format 0.0.4), the
   oracle the scrape tests and the [promcheck] executable hold
   [Obs.Prometheus.render] and the serve /metrics body to.  Sample lines
   are read with the library's own parser. *)

open Obs.Prometheus

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

