(* Leveled, structured logging as JSON lines (schema turbosyn-log/1,
   doc/OBSERVABILITY.md §Logging).

   Orthogonal to the metric switch: a log line is an operator-facing
   event (a request served, a slow request, a startup banner), wanted
   even when counter collection is off, so emission is gated only on
   the level threshold.  Lines go to stderr by default — stdout stays
   reserved for machine-readable documents (--stats=-, bench tables) —
   or to a file sink; a bounded in-memory ring keeps the most recent
   records for the /debug endpoints and tests.

   The request-id is ambient, per-domain: Obs.Scope installs it for the
   duration of a request, and every line emitted inside picks it up. *)

type level = Debug | Info | Warn | Error

let level_value = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let threshold = ref Info
let set_level l = threshold := l
let level () = !threshold

type record = {
  ts : float;
  lvl : level;
  event : string;
  request_id : string option;
  fields : (string * Json.t) list;
}

(* ---------------------------------------------------------------- *)
(* Sink                                                             *)
(* ---------------------------------------------------------------- *)

type sink = Stderr | File of out_channel | Null

let sink = ref Stderr
let sink_path : string option ref = ref None

(* one mutex around ring + sink writes: the serve accept loop and its
   worker domains (and bench client domains) log concurrently, and
   interleaved half-lines would break the JSON-lines contract *)
let mutex = Mutex.create ()

let close_sink () =
  (match !sink with File oc -> (try close_out oc with Sys_error _ -> ()) | _ -> ());
  sink := Stderr;
  sink_path := None

let to_stderr () =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) close_sink

let to_null () =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      close_sink ();
      sink := Null)

let to_file path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      close_sink ();
      sink := File oc;
      sink_path := Some path)

let output_path () = !sink_path

(* ---------------------------------------------------------------- *)
(* Ambient request id                                               *)
(* ---------------------------------------------------------------- *)

let request_id_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_request_id () = Domain.DLS.get request_id_key

let with_request_id id f =
  let prev = Domain.DLS.get request_id_key in
  Domain.DLS.set request_id_key (Some id);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set request_id_key prev)
    f

(* ---------------------------------------------------------------- *)
(* Ring + emission                                                  *)
(* ---------------------------------------------------------------- *)

let default_ring_capacity = 1024
let ring_capacity = ref default_ring_capacity
let ring : record Queue.t = Queue.create ()
let ring_dropped = ref 0

let set_ring_capacity n =
  if n < 0 then invalid_arg "Obs.Log.set_ring_capacity: negative";
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      ring_capacity := n;
      while Queue.length ring > n do
        ignore (Queue.pop ring);
        incr ring_dropped
      done)

let clear () =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      Queue.clear ring;
      ring_dropped := 0)

let record_json r =
  Json.Obj
    ([ ("ts", Json.Float r.ts);
       ("level", Json.Str (level_name r.lvl));
       ("event", Json.Str r.event);
     ]
    @ (match r.request_id with
      | None -> []
      | Some id -> [ ("request_id", Json.Str id) ])
    @ r.fields)

let enabled_for lvl = level_value lvl >= level_value !threshold

let log lvl event fields =
  if enabled_for lvl then begin
    let r =
      {
        ts = Prelude.Timer.wall ();
        lvl;
        event;
        request_id = current_request_id ();
        fields;
      }
    in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
        if !ring_capacity > 0 then begin
          if Queue.length ring >= !ring_capacity then begin
            ignore (Queue.pop ring);
            incr ring_dropped
          end;
          Queue.add r ring
        end;
        match !sink with
        | Null -> ()
        | Stderr ->
            output_string stderr (Json.to_string (record_json r));
            output_char stderr '\n';
            flush stderr
        | File oc ->
            output_string oc (Json.to_string (record_json r));
            output_char oc '\n';
            flush oc)
  end

let debug event fields = log Debug event fields
let info event fields = log Info event fields
let warn event fields = log Warn event fields
let error event fields = log Error event fields

let recent () = List.rev (Queue.fold (fun acc r -> r :: acc) [] ring)
let length () = Queue.length ring
let dropped () = !ring_dropped
