(* Per-entry span slices for the Chrome-trace/Perfetto timeline export.

   Spans only keep aggregates (total seconds, entry count); a timeline
   needs every completed outermost activation as an interval.  Span.exit
   records one slice per outermost completion into the current sink's
   bounded ring (Sink): the global ring here, or a request scope's,
   whose slices stay with its summary. *)

type slice = Sink.slice = { name : string; start : float; stop : float }

let record name ~start ~stop =
  if State.on () then Sink.push_slice (Sink.current ()) name ~start ~stop

let set_capacity n =
  if n < 0 then invalid_arg "Obs.Timeline.set_capacity: negative";
  Sink.set_capacity Sink.global n

let clear () = Sink.clear_slices Sink.global
let slices () = Sink.slices Sink.global
let length () = Sink.global.len
let dropped () = Sink.global.dropped
