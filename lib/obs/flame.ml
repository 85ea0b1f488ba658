(* Folding span timelines into flamegraph.pl-compatible folded stacks.

   Timeline slices are flat (name, start, stop) intervals; the call
   structure is recovered from interval containment — a slice lying
   inside another is its child, which is exactly how distinct spans
   nest on one domain (a child span completes before its parent's exit
   records).  Each stack's weight is SELF time: the slice's duration
   minus its direct children's, in integer microseconds, which is what
   flamegraph.pl expects ("a;b;c 1234" per line).

   Slices merged from concurrent request scopes can overlap without
   nesting; an overlapping slice is treated as a sibling (the stack
   unwinds to the innermost frame that fully contains it), and self
   time is clamped at zero when concurrent children overlap each other,
   so the output is always well-formed — a per-domain interleaving
   rather than a lie about the call structure (doc/OBSERVABILITY.md
   §Flamegraphs). *)

(* an open frame of the fold: its slice, its stack key (frames joined
   with ';', outermost first) and the seconds its direct children cover *)
type frame = { slice : int; key : string; mutable child : float }

(* frame separators are structural in the folded format *)
let clean_frame name =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) name

(* Fold the slices at positions [order] (oldest first) of the columns
   [names], [starts] and [stops]; [order] is sorted in place. *)
let fold ~names ~starts ~stops order =
  let start i = Float.Array.get starts i and stop i = Float.Array.get stops i in
  (* parents first: by start ascending, then longer first at equal
     start, so a container always precedes its contents *)
  Array.stable_sort
    (fun i j ->
      match Float.compare (start i) (start j) with
      | 0 -> Float.compare (stop j) (stop i)
      | c -> c)
    order;
  let acc : (string, float) Hashtbl.t = Hashtbl.create 64 in
  (* close the innermost frame: credit its self time to its stack and
     its duration to its parent *)
  let pop = function
    | [] -> []
    | f :: rest ->
        let seconds = stop f.slice -. start f.slice in
        let self = Float.max 0. (seconds -. f.child) in
        let prev = Option.value ~default:0. (Hashtbl.find_opt acc f.key) in
        Hashtbl.replace acc f.key (prev +. self);
        (match rest with
        | parent :: _ -> parent.child <- parent.child +. seconds
        | [] -> ());
        rest
  in
  let stack =
    Array.fold_left
      (fun stack i ->
        (* starts are sorted, so slice [i] lies inside a frame exactly
           when it stops no later *)
        let rec unwind = function
          | f :: _ as st when not (stop i <= stop f.slice) -> unwind (pop st)
          | st -> st
        in
        let stack = unwind stack in
        let name = clean_frame names.(i) in
        let key =
          match stack with [] -> name | parent :: _ -> parent.key ^ ";" ^ name
        in
        { slice = i; key; child = 0. } :: stack)
      [] order
  in
  let rec drain = function [] -> () | st -> drain (pop st) in
  drain stack;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let fold_slices slices =
  let a = Array.of_list slices in
  fold
    ~names:(Array.map (fun (s : Timeline.slice) -> s.Timeline.name) a)
    ~starts:(Float.Array.map_from_array (fun (s : Timeline.slice) -> s.start) a)
    ~stops:(Float.Array.map_from_array (fun (s : Timeline.slice) -> s.stop) a)
    (Array.init (Array.length a) Fun.id)

let fold_timeline () =
  let s = Sink.global in
  fold ~names:s.names ~starts:s.starts ~stops:s.stops
    (Array.init s.len (Sink.slice_index s))

let to_string folded =
  let b = Buffer.create 256 in
  List.iter
    (fun (stack, self) ->
      let us = int_of_float (Float.round (self *. 1e6)) in
      if us > 0 then (
        Buffer.add_string b stack;
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int us);
        Buffer.add_char b '\n'))
    folded;
  Buffer.contents b

let of_slices slices = to_string (fold_slices slices)

(* Chrome-trace documents (the benchmark's trace files) back into
   slices: every "X" complete event, ts/dur in microseconds. *)
let slices_of_timeline_json j =
  match Json.member "traceEvents" j with
  | Some (Json.List events) ->
      Ok
        (List.filter_map
           (fun ev ->
             match Json.member "ph" ev with
             | Some (Json.Str "X") -> (
                 let num key =
                   match Json.member key ev with
                   | Some (Json.Float f) -> Some f
                   | Some (Json.Int i) -> Some (float_of_int i)
                   | _ -> None
                 in
                 match (Json.member "name" ev, num "ts", num "dur") with
                 | Some (Json.Str name), Some ts, Some dur ->
                     Some
                       {
                         Timeline.name;
                         start = ts /. 1e6;
                         stop = (ts +. dur) /. 1e6;
                       }
                 | _ -> None)
             | _ -> None)
           events)
  | _ -> Error "not a Chrome-trace document (no traceEvents array)"

let write dest text =
  if dest = "-" then print_string text
  else begin
    let oc = open_out dest in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc text)
  end
