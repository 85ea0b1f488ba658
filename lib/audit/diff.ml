module J = Obs.Json

type thresholds = { ratio : float; slack : int }

let default_thresholds = { ratio = 1.25; slack = 16 }

type item = {
  name : string;
  base : int;
  cur : int;
  limit : int;
  regressed : bool;
}

type t = {
  counters : item list;
  entries : item list;
  histograms : item list;
  missing : string list;
  added : string list;
  ok : bool;
}

let schema_of doc =
  match J.member "schema" doc with Some (J.Str s) -> Some s | _ -> None

let known_schemas =
  [ "turbosyn-stats/1"; "turbosyn-stats/2"; "turbosyn-stats/3" ]

let counters_of doc =
  match J.member "counters" doc with
  | Some (J.Obj l) ->
      Ok
        (List.filter_map
           (fun (k, v) -> match v with J.Int i -> Some (k, i) | _ -> None)
           l)
  | _ -> Error "document has no \"counters\" object"

let entries_of doc =
  match J.member "spans" doc with
  | Some (J.Obj l) ->
      Ok
        (List.filter_map
           (fun (k, v) ->
             match J.member "entries" v with
             | Some (J.Int i) -> Some (k, i)
             | _ -> None)
           l)
  | _ -> Error "document has no \"spans\" object"

(* Histogram observation counts are deterministic like counters; sums and
   quantiles are value distributions (sizes are deterministic but latencies
   are not), so only [count] gates.  v1 documents have no histograms
   section, which reads as the empty map — nothing to gate against. *)
let histogram_counts_of doc =
  match J.member "histograms" doc with
  | Some (J.Obj l) ->
      List.filter_map
        (fun (k, v) ->
          match J.member "count" v with
          | Some (J.Int i) -> Some (k, i)
          | _ -> None)
        l
  | _ -> []

let limit_of th base = int_of_float (float_of_int base *. th.ratio) + th.slack

let compare_maps overrides th base cur =
  let items =
    List.map
      (fun (name, b) ->
        let c = Option.value ~default:0 (List.assoc_opt name cur) in
        let th = Option.value ~default:th (List.assoc_opt name overrides) in
        let limit = limit_of th b in
        { name; base = b; cur = c; limit; regressed = c > limit })
      base
  in
  let missing =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name cur then None else Some name)
      base
  in
  let added =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name base then None else Some name)
      cur
  in
  (items, missing, added)

let ( let* ) = Result.bind

(* Schema acceptance: both documents must carry a known version, and the
   baseline may be older than the current document (a committed v1
   baseline keeps gating v2 runs) but never newer — a v2 baseline gates
   sections a v1 document cannot contain. *)
let version_of s =
  let rec index i = function
    | [] -> None
    | v :: _ when v = s -> Some i
    | _ :: rest -> index (i + 1) rest
  in
  index 0 known_schemas

let diff ?(thresholds = default_thresholds) ?(overrides = []) ~base ~cur () =
  let* () =
    match (schema_of base, schema_of cur) with
    | Some a, Some b -> (
        match (version_of a, version_of b) with
        | Some va, Some vb when va <= vb -> Ok ()
        | Some _, Some _ ->
            Error
              (Printf.sprintf
                 "baseline schema %S is newer than current document %S" a b)
        | None, _ -> Error (Printf.sprintf "unknown baseline schema %S" a)
        | _, None -> Error (Printf.sprintf "unknown current schema %S" b))
    | _ -> Error "missing \"schema\" member"
  in
  let* bc = counters_of base in
  let* cc = counters_of cur in
  let* be = entries_of base in
  let* ce = entries_of cur in
  let bh = histogram_counts_of base in
  let ch = histogram_counts_of cur in
  let counters, cm, ca = compare_maps overrides thresholds bc cc in
  let entries, em, ea = compare_maps overrides thresholds be ce in
  let histograms, hm, ha = compare_maps overrides thresholds bh ch in
  let missing =
    cm
    @ List.map (fun n -> n ^ ".entries") em
    @ List.map (fun n -> n ^ ".count") hm
  in
  let added =
    ca
    @ List.map (fun n -> n ^ ".entries") ea
    @ List.map (fun n -> n ^ ".count") ha
  in
  let no_regression l = not (List.exists (fun i -> i.regressed) l) in
  Ok
    {
      counters;
      entries;
      histograms;
      missing;
      added;
      ok =
        no_regression counters && no_regression entries
        && no_regression histograms && missing = [];
    }

let render t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let dump kind items =
    List.iter
      (fun i ->
        if i.regressed then
          line "REGRESSION %s %s: %d -> %d (limit %d)" kind i.name i.base i.cur
            i.limit
        else if i.cur <> i.base then
          line "ok         %s %s: %d -> %d (limit %d)" kind i.name i.base i.cur
            i.limit)
      items
  in
  dump "counter" t.counters;
  dump "entries" t.entries;
  dump "histogram" t.histograms;
  List.iter (fun n -> line "MISSING    %s (present in baseline)" n) t.missing;
  List.iter (fun n -> line "new        %s (absent from baseline)" n) t.added;
  line "%s" (if t.ok then "stats-diff: OK" else "stats-diff: REGRESSED");
  Buffer.contents buf
