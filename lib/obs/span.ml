type gc_totals = Sink.gc_totals = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  compactions : int;
}

(* A span is a name and the slot its cell has in every sink (Sink):
   enter/exit operate on the cell in the calling domain's current sink
   (own depth, own GC deltas), readers read the global one.  A span
   still open when its scope closes (a task raised between enter and
   exit without Fun.protect) loses that activation, matching the
   toggle-while-open behaviour. *)
type t = Sink.id = { name : string; slot : int }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let make = Sink.register registry Sink.span
let name s = s.name
let seconds s = (Sink.span s).total
let count s = (Sink.span s).entries
let gc_totals s = (Sink.span s).gc

let enter s =
  if State.on () then begin
    let c = Sink.current_span s in
    if c.depth = 0 then begin
      c.started <- Prelude.Timer.wall ();
      c.gc_at_enter <- Some (Gc.quick_stat ());
      c.minor_at_enter <- Gc.minor_words ()
    end;
    c.depth <- c.depth + 1
  end

let exit s =
  if State.on () then begin
    let c = Sink.current_span s in
    if c.depth > 0 then begin
      c.depth <- c.depth - 1;
      if c.depth = 0 then begin
        (* GC record first, clock last: the quick_stat's cost then lands
           inside this activation, as the enter-side one does, instead
           of on the parent *)
        (match c.gc_at_enter with
        | Some g0 ->
            let g1 = Gc.quick_stat () in
            c.gc <-
              {
                minor_words =
                  c.gc.minor_words +. (Gc.minor_words () -. c.minor_at_enter);
                promoted_words =
                  c.gc.promoted_words
                  +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
                major_words =
                  c.gc.major_words +. (g1.Gc.major_words -. g0.Gc.major_words);
                compactions =
                  c.gc.compactions + (g1.Gc.compactions - g0.Gc.compactions);
              };
            c.gc_at_enter <- None
        | None -> ());
        let now = Prelude.Timer.wall () in
        c.total <- c.total +. (now -. c.started);
        c.entries <- c.entries + 1;
        Timeline.record s.name ~start:c.started ~stop:now
      end
    end
  end

let time s f =
  if not (State.on ()) then f ()
  else begin
    enter s;
    Fun.protect ~finally:(fun () -> exit s) f
  end

let all_full () = Sink.spans Sink.global
let all () = List.map (fun (n, secs, e, _) -> (n, secs, e)) (all_full ())
