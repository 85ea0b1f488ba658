(** Leveled, structured logging as JSON lines.

    Each line is one JSON object (schema [turbosyn-log/1], documented
    in [doc/OBSERVABILITY.md] §Logging):

    {v
    {"ts": <epoch seconds>, "level": "debug|info|warn|error",
     "event": "<subsystem.event>", "request_id": "<id, when ambient>",
     ...event-specific fields...}
    v}

    Emission is gated only on the level threshold, {e not} on
    {!Obs.set_enabled}: log lines are operator events, wanted even when
    metric collection is off.  Lines go to stderr by default (stdout
    stays reserved for machine-readable output) or to a file sink.
    Writes are serialized with a mutex, so concurrent domains never
    interleave half-lines. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

val level_of_string : string -> level option
(** Case-insensitive; accepts ["warning"] for [Warn]. *)

val set_level : level -> unit
(** Threshold: records strictly below it are dropped entirely.
    Default [Info]. *)

(** {1 Sink} *)

val to_stderr : unit -> unit
(** Route lines to stderr (the default; closes any open file sink). *)

val to_file : string -> unit
(** Route lines to a file, opened in append mode.
    @raise Sys_error when the file cannot be opened. *)

val to_null : unit -> unit
(** Drop lines. *)

(** {1 Ambient request id}

    The correlation id is per-domain ambient state: {!Obs.Scope.run}
    installs the scope's id for the duration of a request, and every
    line logged inside carries it as [request_id]. *)

val with_request_id : string -> (unit -> 'a) -> 'a
val current_request_id : unit -> string option

(** {1 Emission} *)

val log : level -> string -> (string * Json.t) list -> unit
(** [log lvl event fields] emits one record.  [event] is a dotted
    lower-case name ([subsystem.event]); [fields] must not collide with
    the reserved keys [ts], [level], [event], [request_id]. *)

val debug : string -> (string * Json.t) list -> unit
val info : string -> (string * Json.t) list -> unit
val warn : string -> (string * Json.t) list -> unit
val error : string -> (string * Json.t) list -> unit

val enabled_for : level -> bool
(** Whether a record at this level would currently be emitted. *)
