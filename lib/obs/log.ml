(* Leveled, structured logging as JSON lines (schema turbosyn-log/1,
   doc/OBSERVABILITY.md §Logging).

   Orthogonal to the metric switch: a log line is an operator-facing
   event (a request served, a slow request, a startup banner), wanted
   even when counter collection is off, so emission is gated only on
   the level threshold.  Lines go to stderr by default — stdout stays
   reserved for machine-readable documents (--stats=-, bench tables) —
   or to a file sink.

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

(* ---------------------------------------------------------------- *)
(* Sink                                                             *)
(* ---------------------------------------------------------------- *)

type sink = Stderr | File of out_channel | Null

let sink = ref Stderr

(* one mutex around sink writes: the serve accept loop and its worker
   domains (and bench client domains) log concurrently, and interleaved
   half-lines would break the JSON-lines contract *)
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let close_sink () =
  (match !sink with File oc -> (try close_out oc with Sys_error _ -> ()) | _ -> ());
  sink := Stderr

let to_stderr () = locked close_sink

let to_null () =
  locked (fun () ->
      close_sink ();
      sink := Null)

let to_file path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  locked (fun () ->
      close_sink ();
      sink := File oc)

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
(* Emission                                                         *)
(* ---------------------------------------------------------------- *)

let enabled_for lvl = level_value lvl >= level_value !threshold

let log lvl event fields =
  if enabled_for lvl then begin
    let line =
      Json.to_string
        (Json.Obj
           ([
              ("ts", Json.Float (Prelude.Timer.wall ()));
              ("level", Json.Str (level_name lvl));
              ("event", Json.Str event);
            ]
           @ (match current_request_id () with
             | None -> []
             | Some id -> [ ("request_id", Json.Str id) ])
           @ fields))
    in
    let write oc =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    locked (fun () ->
        match !sink with
        | Null -> ()
        | Stderr -> write stderr
        | File oc -> write oc)
  end

let debug event fields = log Debug event fields
let info event fields = log Info event fields
let warn event fields = log Warn event fields
let error event fields = log Error event fields
