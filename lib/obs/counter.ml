(* A counter is a name and the slot its cell has in every sink (Sink):
   hooks write the calling domain's current sink, readers read the
   global one. *)
type t = Sink.id = { name : string; slot : int }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let make = Sink.register registry Sink.counter

let value c =
  let x = Sink.counter c in
  max x.adds x.peak

let incr c =
  if State.on () then begin
    let x = Sink.current_counter c in
    x.adds <- x.adds + 1
  end

let add c k =
  if k < 0 then invalid_arg "Obs.Counter.add: negative increment";
  if State.on () then begin
    let x = Sink.current_counter c in
    x.adds <- x.adds + k
  end

let record_max c v =
  if State.on () then begin
    let x = Sink.current_counter c in
    if v > x.peak then x.peak <- v
  end

let find key = Option.map value (Hashtbl.find_opt registry key)
let all () = Sink.counters Sink.global
let reset_all () = Sink.reset_counters Sink.global
