(* Per-entry span slices for the Chrome-trace/Perfetto timeline export.

   Spans only keep aggregates (total seconds, entry count); a timeline
   needs every completed outermost activation as an interval.  Span.exit
   records one slice here per outermost completion while the master
   switch is on.  Bounded ring: oldest slices are dropped and counted
   once the capacity is reached. *)

type slice = { name : string; start : float; stop : float }

(* A bounded slice queue with its drop count: the global ring, or a
   request scope's shard (Obs.Scope).  The Queue is not thread-safe, so
   inside a scope, slices buffer in the scope's domain-local queue (same
   capacity bound) and replay into the ring when the scope closes. *)
type shard = { q : slice Queue.t; mutable drops : int }

let default_capacity = 65536
let capacity = ref default_capacity
let ring = { q = Queue.create (); drops = 0 }

let clear () =
  Queue.clear ring.q;
  ring.drops <- 0

(* append, dropping (and counting) the oldest slice at capacity *)
let push sh s =
  if Queue.length sh.q >= !capacity then begin
    ignore (Queue.pop sh.q);
    sh.drops <- sh.drops + 1
  end;
  Queue.add s sh.q

let set_capacity n =
  if n < 0 then invalid_arg "Obs.Timeline.set_capacity: negative";
  capacity := n;
  while Queue.length ring.q > n do
    ignore (Queue.pop ring.q);
    ring.drops <- ring.drops + 1
  done

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_shard () = { q = Queue.create (); drops = 0 }
let set_shard s = Domain.DLS.set shard_key s

let record name ~start ~stop =
  if State.on () && !capacity > 0 then
    let sh = match Domain.DLS.get shard_key with None -> ring | Some sh -> sh in
    push sh { name; start; stop }

let merge_shard sh =
  if !capacity > 0 then Queue.iter (push ring) sh.q;
  ring.drops <- ring.drops + sh.drops;
  Queue.clear sh.q;
  sh.drops <- 0

let shard_slices sh = List.of_seq (Queue.to_seq sh.q)
let shard_dropped sh = sh.drops
let slices () = shard_slices ring
let length () = Queue.length ring.q
let dropped () = ring.drops
