type gc_totals = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  compactions : int;
}

let gc_zero =
  { minor_words = 0.; promoted_words = 0.; major_words = 0.; compactions = 0 }

type t = {
  name : string;
  mutable total : float; (* accumulated wall seconds, outermost entries *)
  mutable entries : int; (* completed outermost entries *)
  mutable depth : int; (* live nesting depth (recursive re-entry) *)
  mutable started : float; (* wall clock of the outermost enter *)
  (* Gc.quick_stat snapshot at the outermost enter, and the deltas
     accumulated over completed outermost entries.  quick_stat reads
     live counters without walking the heap and costs a few loads per
     phase boundary.  Minor words are read from Gc.minor_words instead:
     quick_stat's count only advances at a minor collection on OCaml 5,
     so a short span would read 0 or a whole minor heap. *)
  mutable gc_at_enter : Gc.stat option;
  mutable minor_at_enter : float;
  mutable gc : gc_totals;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

(* the span under [name] in [tbl] (the registry or a scope's shard),
   created at zero on first use *)
let find_or_add tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          total = 0.;
          entries = 0;
          depth = 0;
          started = 0.;
          gc_at_enter = None;
          minor_at_enter = 0.;
          gc = gc_zero;
        }
      in
      Hashtbl.replace tbl name s;
      s

let make name = find_or_add registry name

let name s = s.name
let seconds s = s.total
let count s = s.entries
let gc_totals s = s.gc

(* Request-scope shards (Obs.Scope): the registry records are plain
   mutable state, so inside a scope, enter/exit operate on a
   domain-local mirror of the span (including nesting depth and GC
   deltas — quick_stat is per-domain in OCaml 5, so the deltas are the
   worker's own allocation).  Totals fold into the registry when the
   scope closes.  A span still open at the close (a task raised between
   enter and exit without Fun.protect) loses that activation, matching
   the toggle-while-open behaviour. *)
type shard = (string, t) Hashtbl.t

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_shard () : shard = Hashtbl.create 16
let set_shard s = Domain.DLS.set shard_key s

let merge_shard sh =
  Hashtbl.iter
    (fun name (local : t) ->
      let s = make name in
      s.total <- s.total +. local.total;
      s.entries <- s.entries + local.entries;
      s.gc <-
        {
          minor_words = s.gc.minor_words +. local.gc.minor_words;
          promoted_words = s.gc.promoted_words +. local.gc.promoted_words;
          major_words = s.gc.major_words +. local.gc.major_words;
          compactions = s.gc.compactions + local.gc.compactions;
        })
    sh;
  Hashtbl.reset sh

let shard_contents (sh : shard) =
  Hashtbl.fold
    (fun name s acc -> (name, s.total, s.entries, s.gc) :: acc)
    sh []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let resolve s =
  match Domain.DLS.get shard_key with
  | None -> s
  | Some sh -> find_or_add sh s.name

let enter s =
  if State.on () then begin
    let s = resolve s in
    if s.depth = 0 then begin
      s.started <- Prelude.Timer.wall ();
      s.gc_at_enter <- Some (Gc.quick_stat ());
      s.minor_at_enter <- Gc.minor_words ();
      (* live-stack mirror for the sampling profiler: allocation-free
         (stores an existing string into a pre-sized array), so GC
         deltas and every other observable stay byte-identical whether
         the sampler is attached or not *)
      if State.profiling_on () then Livestack.push s.name
    end;
    s.depth <- s.depth + 1
  end

let exit s =
  let s = if State.on () then resolve s else s in
  if State.on () && s.depth > 0 then begin
    s.depth <- s.depth - 1;
    if s.depth = 0 then begin
      let now = Prelude.Timer.wall () in
      s.total <- s.total +. (now -. s.started);
      s.entries <- s.entries + 1;
      (match s.gc_at_enter with
      | Some g0 ->
          let g1 = Gc.quick_stat () in
          s.gc <-
            {
              minor_words =
                s.gc.minor_words +. (Gc.minor_words () -. s.minor_at_enter);
              promoted_words =
                s.gc.promoted_words
                +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
              major_words =
                s.gc.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
              compactions =
                s.gc.compactions + (g1.Gc.compactions - g0.Gc.compactions);
            };
          s.gc_at_enter <- None
      | None -> ());
      Timeline.record s.name ~start:s.started ~stop:now;
      if State.profiling_on () then Livestack.pop s.name
    end
  end

let time s f =
  if not (State.on ()) then f ()
  else begin
    enter s;
    Fun.protect ~finally:(fun () -> exit s) f
  end

let all () =
  Hashtbl.fold (fun _ s acc -> (s.name, s.total, s.entries) :: acc) registry []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let all_full () =
  Hashtbl.fold
    (fun _ s acc -> (s.name, s.total, s.entries, s.gc) :: acc)
    registry []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let reset_all () =
  Hashtbl.iter
    (fun _ s ->
      s.total <- 0.;
      s.entries <- 0;
      s.depth <- 0;
      s.started <- 0.;
      s.gc_at_enter <- None;
      s.gc <- gc_zero)
    registry
