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

type entry = {
  name : string;
  start : float;
  stop : float;
  mutable child : float; (* seconds covered by direct children *)
}

(* frame separators are structural in the folded format *)
let clean_frame name =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\n' then '_' else c) name

let fold_array slices =
  (* parents first: by start ascending, then longer first at equal
     start, so a container always precedes its contents *)
  Array.stable_sort
    (fun (a : Timeline.slice) (b : Timeline.slice) ->
      match Float.compare a.Timeline.start b.Timeline.start with
      | 0 -> Float.compare b.Timeline.stop a.Timeline.stop
      | c -> c)
    slices;
  let acc : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  (* innermost first *)
  let emit e rest =
    let self = Float.max 0. (e.stop -. e.start -. e.child) in
    let key =
      String.concat ";"
        (List.rev_map (fun fr -> clean_frame fr.name) (e :: rest))
    in
    let prev = Option.value ~default:0. (Hashtbl.find_opt acc key) in
    Hashtbl.replace acc key (prev +. self)
  in
  let pop_one () =
    match !stack with
    | [] -> ()
    | e :: rest ->
        emit e rest;
        (match rest with
        | parent :: _ -> parent.child <- parent.child +. (e.stop -. e.start)
        | [] -> ());
        stack := rest
  in
  let contains outer (s : Timeline.slice) =
    (* starts are sorted, so s.start >= outer.start already holds *)
    s.Timeline.stop <= outer.stop
  in
  Array.iter
    (fun (s : Timeline.slice) ->
      let rec unwind () =
        match !stack with
        | top :: _ when not (contains top s) ->
            pop_one ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      stack :=
        {
          name = s.Timeline.name;
          start = s.Timeline.start;
          stop = s.Timeline.stop;
          child = 0.;
        }
        :: !stack)
    slices;
  while !stack <> [] do
    pop_one ()
  done;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let fold_slices slices = fold_array (Array.of_list slices)

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

(* Chrome-trace documents (Report.timeline_json / --timeline files)
   back into slices: every "X" complete event, ts/dur in microseconds. *)
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
