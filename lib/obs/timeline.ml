(* Per-entry span slices for flamegraph folding.

   Spans only keep aggregates (total seconds, entry count); a fold needs
   every completed outermost activation as an interval.  Span.exit
   records one slice per outermost completion into the current sink's
   bounded ring (Sink): the global ring here, which records only once
   given a capacity (flame -w), or a request scope's, whose slices stay
   with its summary. *)

type slice = Sink.slice = { name : string; start : float; stop : float }

let record name ~start ~stop =
  if State.on () then Sink.push_slice (Sink.current ()) name ~start ~stop

let set_capacity n =
  if n < 0 then invalid_arg "Obs.Timeline.set_capacity: negative";
  Sink.set_capacity Sink.global n

let slices () = Sink.slices Sink.global
