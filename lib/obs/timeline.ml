(* Per-entry span slices for the Chrome-trace/Perfetto timeline export.

   Spans only keep aggregates (total seconds, entry count); a timeline
   needs every completed outermost activation as an interval.  Span.exit
   records one slice per outermost completion into the current sink's
   bounded queue (Sink): the global ring here, or a request scope's,
   whose slices stay with its summary. *)

type slice = Sink.slice = { name : string; start : float; stop : float }

let record name ~start ~stop =
  if State.on () then Sink.push_slice (Sink.current ()) { name; start; stop }

let set_capacity n =
  if n < 0 then invalid_arg "Obs.Timeline.set_capacity: negative";
  let g = Sink.global in
  g.capacity <- n;
  while Queue.length g.slices > n do
    ignore (Queue.pop g.slices);
    g.dropped <- g.dropped + 1
  done

let clear () = Sink.clear_slices Sink.global
let slices () = Sink.slices Sink.global

let to_array () =
  let q = Sink.global.slices in
  match Queue.peek_opt q with
  | None -> [||]
  | Some first ->
      (* filled by index: Array.of_seq would build a list first *)
      let a = Array.make (Queue.length q) first in
      let i = ref 0 in
      Queue.iter
        (fun s ->
          a.(!i) <- s;
          incr i)
        q;
      a

let length () = Queue.length Sink.global.slices
let dropped () = Sink.global.dropped
