type gc_totals = Sink.gc_totals = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
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
let seconds s = (Sink.span s).total
let count s = (Sink.span s).entries
let gc_totals s = (Sink.span s).gc

let enter s =
  if State.on () then begin
    let c = Sink.current_span s in
    if c.depth = 0 then begin
      c.started <- Prelude.Timer.wall ();
      c.gc_at_enter <- Sink.gc_now ()
    end;
    c.depth <- c.depth + 1
  end

let exit s =
  if State.on () then begin
    let c = Sink.current_span s in
    if c.depth > 0 then begin
      c.depth <- c.depth - 1;
      if c.depth = 0 then begin
        (* GC reading first, clock last: its cost then lands inside this
           activation, as the enter-side one does, instead of on the
           parent *)
        c.gc <- Sink.gc_add_since c.gc c.gc_at_enter;
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
