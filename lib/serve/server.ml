(* A dependency-free HTTP/1.1 serving stack over [Unix] exposing the
   mapping pipeline as a service: POST /map runs a synthesis request,
   /metrics is a Prometheus scrape of the Obs registries, /healthz a
   liveness probe with pool/cache gauges, and /debug/requests +
   /debug/trace/<id> introspect the recent-request ring.

   Serve v2 architecture (doc/CONCURRENCY.md §Serving):

     accept lane ──> bounded Bqueue ──> N worker domains
   (calling domain)                   (one Domain.spawn each)
          │                                  │
          │ inline: /healthz /metrics        │ /map misses and in-flight
          │   /debug/*, /map body errors,    │ keys: single-flight cache,
          │   /map cache hits  (cheap)       │ Synth.run on miss
          │ full queue: shed 429             │

   The accept lane owns the listen socket and the request *read*,
   bounded by one deadline per request (408 when it expires, so a
   silent client stalls the lane for at most that long): it
   parses the HTTP envelope and the /map request, answers the cheap
   routes inline, and hands the /map jobs it cannot answer (fd +
   validated request) to the queue.  Worker domains own the /map
   compute and its response write.  Admission control is the queue
   bound: a full queue sheds with 429 + Retry-After instead of
   queueing unboundedly, and the monitoring routes and cache hits stay
   answerable from the accept lane even under full overload.

   Result cache: /map responses are cached under the validated request,
   (circuit, algo, k), so a lookup does no circuit work.  A completed
   entry is answered on the accept lane (Cache.find), never queued
   behind a computing miss; misses and keys in flight queue, and the
   worker's lookup is single-flight (Cache.find_or_compute):
   concurrent identical submissions compute once.  Every /map response
   carries an [X-Cache: hit|miss|bypass] marker.

   Observability under concurrency: each queued /map request runs
   inside an Obs.Scope on its worker domain, so every counter/span/histogram
   write lands in the request's sink.  The process-global registries
   are only ever touched under [registry_mutex]: scope closes (the
   sink merge), the /map response-bytes counter, the accept lane's
   inline-route counters, and the /metrics render all serialize there
   — scrape counters stay monotone and torn reads cannot happen.
   Gauges are point-in-time: they are written at scrape time from the
   server's atomics, never from workers.

   Correlation ids: the client may supply one (X-Request-Id, or the
   trace-id field of a W3C traceparent header); otherwise the server
   generates one.  Every response echoes it as X-Request-Id, and every
   access-log line, ring entry and per-request trace carries it. *)

module J = Obs.Json

let s_request = Obs.Span.make "serve.request"
let h_request = Obs.Histogram.make "serve.request_seconds"
let h_queue_wait = Obs.Histogram.make "serve.queue_wait_seconds"
let g_inflight = Obs.Gauge.make "serve.inflight"
let g_queue_depth = Obs.Gauge.make "serve.queue_depth"
let g_workers = Obs.Gauge.make "serve.workers"
let g_workers_busy = Obs.Gauge.make "serve.workers_busy"
let g_cache_size = Obs.Gauge.make "serve.cache_size"
let g_cache_capacity = Obs.Gauge.make "serve.cache_capacity"
let c_cache_hits = Obs.Counter.make "serve.cache_hits"
let c_cache_misses = Obs.Counter.make "serve.cache_misses"
let c_cache_joins = Obs.Counter.make "serve.cache_joins"
let c_shed = Obs.Counter.make "serve.shed"

(* Everything process-global in Obs (counters, spans, histograms,
   timeline) is unsynchronized; with worker domains closing scopes
   concurrently, every direct registry touch — merge, render, inline
   counter bump — must hold this mutex.  Writes to a scope's own sink
   need no lock (doc/CONCURRENCY.md §Serving ownership rules). *)
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ------------------------------------------------------------------ *)
(* Request counters: Obs counters, one per (route, status)             *)
(* ------------------------------------------------------------------ *)

(* [serve.requests.<route>.<status>] counters; incremented from inside
   a request scope they land in the request's sink (merged under
   [registry_mutex] at close), from the accept lane they are bumped
   under the lock — either way worker domains never race the registry.
   Resolving the name is itself a registry lookup (and an insert on
   first use), so the [_scoped] variant takes the lock for [make] alone.
   The scrape re-renders them as one labeled family
   ([turbosyn_serve_requests_total{route=...,status=...}]) and
   suppresses the flat per-counter families via [exclude_prefixes]. *)
let requests_prefix = "serve.requests."

let request_counter ~route ~status =
  Obs.Counter.make (Printf.sprintf "%s%s.%d" requests_prefix route status)

(* call under [registry_mutex] *)
let count_request ~route ~status =
  Obs.Counter.incr (request_counter ~route ~status)

let count_request_unscoped ~route ~status =
  with_registry (fun () -> count_request ~route ~status)

let count_request_scoped ~route ~status =
  Obs.Counter.incr (with_registry (fun () -> request_counter ~route ~status))

let request_family () =
  let plen = String.length requests_prefix in
  let samples =
    List.filter_map
      (fun (name, v) ->
        if
          String.length name > plen
          && String.sub name 0 plen = requests_prefix
        then
          let rest = String.sub name plen (String.length name - plen) in
          match String.rindex_opt rest '.' with
          | Some i ->
              Some
                {
                  Obs.Prometheus.labels =
                    [
                      ("route", String.sub rest 0 i);
                      ( "status",
                        String.sub rest (i + 1) (String.length rest - i - 1)
                      );
                    ];
                  value = float_of_int v;
                }
          | None -> None
        else None)
      (Obs.Counter.all ())
    |> List.sort compare
  in
  {
    Obs.Prometheus.fname = "serve.requests";
    fhelp = "HTTP requests handled, by route and status.";
    ftype = `Counter;
    samples;
  }

(* [serve.response_bytes.<route>] counters, bumped under
   [registry_mutex] once the response is written (for /map: once it is
   ready, just before the write), re-rendered as
   [turbosyn_serve_response_bytes_total{route=...}]. *)
let response_bytes_prefix = "serve.response_bytes."

let response_bytes_counter ~route =
  Obs.Counter.make (response_bytes_prefix ^ route)

(* call under [registry_mutex] *)
let count_response_bytes ~route bytes =
  if bytes > 0 then Obs.Counter.add (response_bytes_counter ~route) bytes

let response_bytes_family () =
  let plen = String.length response_bytes_prefix in
  let samples =
    List.filter_map
      (fun (name, v) ->
        if
          String.length name > plen
          && String.sub name 0 plen = response_bytes_prefix
        then
          Some
            {
              Obs.Prometheus.labels =
                [ ("route", String.sub name plen (String.length name - plen)) ];
              value = float_of_int v;
            }
        else None)
      (Obs.Counter.all ())
    |> List.sort compare
  in
  {
    (* extra families get no automatic _total suffix; spell it out *)
    Obs.Prometheus.fname = "serve.response_bytes_total";
    fhelp = "HTTP response body bytes written, by route.";
    ftype = `Counter;
    samples;
  }

(* Per-route end-to-end latency (accept to response written; for /map,
   to response ready).  Flat families
   ([turbosyn_serve_route_seconds_<route>_bucket]): each route keeps
   its own exact bucket counts on the scrape. *)
let route_seconds_prefix = "serve.route_seconds."
let route_hist route = Obs.Histogram.make (route_seconds_prefix ^ route)

(* ------------------------------------------------------------------ *)
(* Correlation ids                                                     *)
(* ------------------------------------------------------------------ *)

let sane_id_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
  | _ -> false

(* oversized ids are rejected, not truncated: a truncated echo would no
   longer match what the client logged, defeating the join *)
let sanitize_id s =
  if s <> "" && String.length s <= 64 && String.for_all sane_id_char s then
    Some s
  else None

let is_hex s = String.for_all (function
  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
  | _ -> false) s

(* W3C traceparent: "00-<32 hex trace-id>-<16 hex parent-id>-<flags>";
   the trace-id becomes our correlation id *)
let id_of_traceparent v =
  match String.split_on_char '-' (String.trim v) with
  | [ _version; trace_id; _parent; _flags ]
    when String.length trace_id = 32 && is_hex trace_id ->
      Some (String.lowercase_ascii trace_id)
  | _ -> None

let request_id_of_headers headers =
  match
    Option.bind (List.assoc_opt "x-request-id" headers) sanitize_id
  with
  | Some id -> id
  | None -> (
      match
        Option.bind (List.assoc_opt "traceparent" headers) id_of_traceparent
      with
      | Some id -> id
      | None -> Obs.Scope.fresh_id ())

(* ------------------------------------------------------------------ *)
(* Recent-request ring (/debug/requests, /debug/trace/<id>)            *)
(* ------------------------------------------------------------------ *)

type req_record = {
  rr_id : string;
  rr_route : string;
  rr_status : int;
  rr_outcome : string;
  rr_cache : string option; (* X-Cache marker, /map only *)
  rr_started : float;
  rr_seconds : float;
  rr_summary : Obs.Scope.summary option; (* scoped routes (/map) only *)
}

(* Each server's own recent-request ring, under its own mutex: the
   accept lane and the worker domains both record, reads serve /debug. *)
type debug = { ring : req_record Queue.t; ring_mutex : Mutex.t }

let ring_capacity = 256
let new_debug () = { ring = Queue.create (); ring_mutex = Mutex.create () }

let with_ring d f =
  Mutex.lock d.ring_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.ring_mutex) f

let remember d rr =
  with_ring d (fun () ->
      if Queue.length d.ring >= ring_capacity then ignore (Queue.pop d.ring);
      Queue.add rr d.ring)

let find_request d id =
  with_ring d (fun () ->
      Queue.fold
        (fun acc rr -> if String.equal rr.rr_id id then Some rr else acc)
        None d.ring)

(* outcome vocabulary (doc/OBSERVABILITY.md §Request scopes): "served"
   for success, "cached" for success straight from the result cache,
   "rejected" for client errors, "shed" for admission-control 429s,
   "failed" for server errors. *)
let outcome_of_status status =
  if status < 400 then "served"
  else if status = 429 then "shed"
  else if status < 500 then "rejected"
  else "failed"

let phases_json (summary : Obs.Scope.summary) =
  J.Obj
    (List.map
       (fun (name, seconds, _entries, _gc) -> (name, J.Float seconds))
       summary.Obs.Scope.sc_spans)

let resources_json (r : Obs.Scope.resources) =
  J.Obj
    [
      ("cpu_seconds", J.Float r.Obs.Scope.r_cpu_seconds);
      ("minor_words", J.Float r.Obs.Scope.r_minor_words);
      ("promoted_words", J.Float r.Obs.Scope.r_promoted_words);
      ("major_words", J.Float r.Obs.Scope.r_major_words);
      ("queue_wait_seconds", J.Float r.Obs.Scope.r_queue_wait);
    ]

let request_json rr =
  J.Obj
    ([
       ("id", J.Str rr.rr_id);
       ("route", J.Str rr.rr_route);
       ("status", J.Int rr.rr_status);
       ("outcome", J.Str rr.rr_outcome);
     ]
    @ (match rr.rr_cache with
      | None -> []
      | Some m -> [ ("cache", J.Str m) ])
    @ [
        ("started", J.Float rr.rr_started);
        ("seconds", J.Float rr.rr_seconds);
      ]
    @
    match rr.rr_summary with
    | None -> []
    | Some s ->
        [
          ("phases", phases_json s);
          ("resources", resources_json s.Obs.Scope.sc_resources);
        ])

(* timeline slices the ring holds: at most capacity x
   Obs.Scope.slice_capacity *)
let retained_slices ring =
  Queue.fold
    (fun acc rr ->
      match rr.rr_summary with
      | Some s -> acc + List.length s.Obs.Scope.sc_slices
      | None -> acc)
    0 ring

let debug_requests_json d =
  let count, slices, newest_first =
    with_ring d (fun () ->
        ( Queue.length d.ring,
          retained_slices d.ring,
          Queue.fold (fun acc rr -> request_json rr :: acc) [] d.ring ))
  in
  J.Obj
    [
      ("schema", J.Str "turbosyn-debug-requests/1");
      ("capacity", J.Int ring_capacity);
      ("count", J.Int count);
      ("retained_slices", J.Int slices);
      ("requests", J.List newest_first);
    ]

(* ------------------------------------------------------------------ *)
(* Mapping requests                                                    *)
(* ------------------------------------------------------------------ *)

(* The response document is a deterministic function of (circuit, algo,
   k): no timings, no machine state.  The same renderer backs the serve
   path (cache miss), the cached bytes (stored rendered), and the
   test's direct [Synth.run] comparison, so byte equality holds for
   every worker count, hit or miss. *)
let result_json ~circuit ~k (r : Turbosyn.Synth.result) =
  J.Obj
    [
      ("schema", J.Str "turbosyn-serve/1");
      ("circuit", J.Str circuit);
      ("algo", J.Str (Turbosyn.Synth.algo_name r.Turbosyn.Synth.algo));
      ("k", J.Int k);
      ("phi", J.Str (Prelude.Rat.to_string r.Turbosyn.Synth.phi));
      ("clock_period", J.Int r.Turbosyn.Synth.clock_period);
      ("latency", J.Int r.Turbosyn.Synth.latency);
      ("luts", J.Int r.Turbosyn.Synth.luts);
      ("probes", J.Int r.Turbosyn.Synth.probes);
      ( "labels",
        match r.Turbosyn.Synth.labels with
        | None -> J.Null
        | Some labels ->
            J.List
              (Array.to_list
                 (Array.map
                    (fun l -> J.Str (Prelude.Rat.to_string l))
                    labels)) );
    ]

(* every flow tabulates K-input LUT functions as truth tables, so K is
   bounded by their arity; a larger K is the client's error, not a 500 *)
let check_k k =
  if k < 2 || k > Logic.Truthtable.max_arity then
    Error (Printf.sprintf "k out of range: %d" k)
  else Ok k

(* a validated /map request: a suite circuit, the algorithm and k *)
type map_request = {
  spec : Workloads.Suite.spec;
  k : int;
  algo : Turbosyn.Synth.algo;
}

(* the miss computation, the only place a request builds its netlist *)
let compute_map r =
  let nl = Workloads.Suite.build r.spec in
  let options = Turbosyn.Synth.default_options ~k:r.k () in
  let result = Turbosyn.Synth.run ~options r.algo nl in
  result_json ~circuit:r.spec.Workloads.Suite.name ~k:r.k result

let map_response ~circuit ~k ~algo =
  match (Workloads.Suite.find circuit, check_k k) with
  | None, _ -> Error (Printf.sprintf "unknown circuit %S" circuit)
  | _, Error e -> Error e
  | Some spec, Ok k -> Ok (compute_map { spec; k; algo })

(* the result-cache key: the request itself.  The response is a
   deterministic function of (circuit, algo, k), and [Suite.find]
   matches names exactly, so a key needs no circuit work. *)
let cache_key r =
  Printf.sprintf "%s/%s/k%d" r.spec.Workloads.Suite.name
    (Turbosyn.Synth.algo_name r.algo)
    r.k

(* the cached /map body: rendered bytes, exactly what [respond_json]
   would write, so hits and misses answer identical payloads *)
let map_body r = J.to_string (compute_map r) ^ "\n"

(* body may be a JSON object {"circuit": ..., "k": ..., "algo": ...};
   query parameters (circuit, k, algo) override nothing — they are the
   GET-form of the same request and looked up when the body is absent *)
let parse_map_request ~query ~body =
  let from_query key = List.assoc_opt key query in
  let doc =
    match body with
    | "" -> Ok None
    | s -> Result.map Option.some (J.of_string s)
  in
  match doc with
  | Error e -> Error ("invalid JSON body: " ^ e)
  | Ok doc -> (
      let str key =
        match Option.bind doc (J.member key) with
        | Some (J.Str s) -> Some s
        | Some _ -> None
        | None -> from_query key
      in
      let int key =
        match Option.bind doc (J.member key) with
        | Some (J.Int i) -> Some (Some i)
        | Some _ -> Some None (* present but not an int: reject *)
        | None -> (
            match from_query key with
            | Some s -> Some (int_of_string_opt s)
            | None -> None)
      in
      match str "circuit" with
      | None -> Error "missing \"circuit\""
      | Some circuit -> (
          let k =
            match int "k" with
            | None -> Ok 5
            | Some (Some i) -> check_k i
            | Some None -> Error "\"k\" is not an integer"
          in
          let algo =
            match str "algo" with
            | None -> Ok `Turbosyn
            | Some name -> (
                match Turbosyn.Synth.algo_of_name name with
                | Some a -> Ok a
                | None -> Error (Printf.sprintf "unknown algo %S" name))
          in
          match (k, algo) with
          | Error e, _ | _, Error e -> Error e
          | Ok k, Ok algo -> (
              match Workloads.Suite.find circuit with
              | None -> Error (Printf.sprintf "unknown circuit %S" circuit)
              | Some spec -> Ok { spec; k; algo })))

(* ------------------------------------------------------------------ *)
(* HTTP plumbing                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  workers : int;  (** worker domains draining the /map queue, >= 1 *)
  queue_depth : int;  (** /map jobs admitted beyond the in-flight ones *)
  cache_entries : int;  (** LRU capacity of the result cache; 0 = off *)
  slow_seconds : float;
}

type job = {
  jb_fd : Unix.file_descr;
  jb_id : string;
  jb_meth : string;
  jb_req : map_request; (* parsed and validated on the accept lane *)
  jb_accepted : float; (* wall clock at enqueue, for queue-wait *)
}

type t = {
  listen : Unix.file_descr;
  port : int;
  config : config;
  stopped : bool Atomic.t;
  queue : job Prelude.Bqueue.t;
  cache : Cache.t;
  busy : int Atomic.t; (* workers currently inside a /map job *)
  debug : debug;
}

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* returns the body byte count (= the Content-Length written), so every
   completion path can feed the serve.response_bytes counters *)
let respond fd ?(headers = []) ~status ~content_type body =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\
       Connection: close\r\n\r\n"
      status (status_text status) content_type (String.length body) extra
  in
  write_all fd (head ^ body);
  String.length body

let respond_json fd ?headers ~status json =
  respond fd ?headers ~status ~content_type:"application/json"
    (J.to_string json ^ "\n")

let error_body msg = J.to_string (J.Obj [ ("error", J.Str msg) ]) ^ "\n"

let respond_error fd ?headers ~status msg =
  respond fd ?headers ~status ~content_type:"application/json"
    (error_body msg)

(* Largest request body accepted; a larger Content-Length is answered
   with 413 before any of the body is read. *)
let max_body = 1 lsl 24

(* Seconds to receive one whole request, head and body; a client that
   has not sent it by then is answered with 408. *)
let read_timeout = 5.0

type read =
  | Request of string * string * (string * string) list * string
      (** method, target, lower-cased headers, body *)
  | Reject of int * string  (** answer with this status and message *)
  | Unreadable  (** no request head: nothing to answer *)

exception Read_timeout

(* [Unix.read] before [deadline]: the socket's receive timeout is set to
   the time remaining, so a silent peer cannot hold the read past it *)
let read_before ~deadline fd chunk =
  let remaining = deadline -. Prelude.Timer.wall () in
  if remaining <= 0. then raise Read_timeout;
  (* a zero SO_RCVTIMEO means no timeout at all *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max remaining 0.001);
  try Unix.read fd chunk 0 (Bytes.length chunk)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise Read_timeout

(* The declared body length: 0 without a Content-Length header, [None]
   unless every Content-Length header is [1*DIGIT] and all agree.  A
   digit string too long for an [int] reads as [max_int], over
   [max_body]. *)
let content_length headers =
  let is_digit c = c >= '0' && c <= '9' in
  let parse v =
    if v = "" || not (String.for_all is_digit v) then None
    else Some (Option.value ~default:max_int (int_of_string_opt v))
  in
  match List.filter (fun (k, _) -> k = "content-length") headers with
  | [] -> Some 0
  | (_, v) :: rest ->
      let n = parse v in
      if List.for_all (fun (_, v') -> parse v' = n) rest then n else None

let header_end buf ~from =
  let n = Buffer.length buf in
  let rec find i =
    if i + 3 >= n then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some (i + 4)
    else find (i + 1)
  in
  find (max 0 from)

(* read until the header terminator, then exactly Content-Length body
   bytes; raises [Read_timeout] at [deadline].  Each scan for the
   terminator resumes 3 bytes before the end of the previous one — a
   terminator can straddle two reads — so an unterminated head costs
   linear, not quadratic, time. *)
let read_envelope ~deadline fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec read_headers from =
    match header_end buf ~from with
    | Some e -> Some e
    | None ->
        if Buffer.length buf > 1 lsl 20 then None (* oversized header *)
        else
          let from = Buffer.length buf - 3 in
          let n = read_before ~deadline fd chunk in
          if n = 0 then None
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            read_headers from
          end
  in
  match read_headers 0 with
  | None -> Unreadable
  | Some body_start -> (
      let raw = Buffer.contents buf in
      let head = String.sub raw 0 body_start in
      let lines = String.split_on_char '\n' head in
      let request_line =
        match lines with l :: _ -> String.trim l | [] -> ""
      in
      let headers =
        List.filter_map
          (fun l ->
            match String.index_opt l ':' with
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
                    String.trim
                      (String.sub l (i + 1) (String.length l - i - 1)) )
            | None -> None)
          (List.tl lines)
      in
      match content_length headers with
      | None -> Reject (400, "malformed Content-Length")
      | Some content_length when content_length > max_body ->
          Reject (413, Printf.sprintf "request body over %d bytes" max_body)
      | Some content_length ->
          let body = Buffer.create content_length in
          Buffer.add_string body
            (String.sub raw body_start (String.length raw - body_start));
          (* false when the peer closes before the body is complete *)
          let rec fill () =
            if Buffer.length body >= content_length then true
            else
              let n = read_before ~deadline fd chunk in
              n > 0
              && begin
                   Buffer.add_subbytes body chunk 0 n;
                   fill ()
                 end
          in
          if not (fill ()) then
            Reject (400, "request body shorter than its Content-Length")
          else
            match String.split_on_char ' ' request_line with
            | meth :: target :: _ ->
                Request
                  (meth, target, headers, Buffer.sub body 0 content_length)
            | _ -> Unreadable)

(* one deadline covers the head and the body *)
let read_request fd =
  try read_envelope ~deadline:(Prelude.Timer.wall () +. read_timeout) fd
  with Read_timeout ->
    Reject
      (408, Printf.sprintf "request not received within %gs" read_timeout)

let parse_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some i ->
      let path = String.sub target 0 i in
      let qs = String.sub target (i + 1) (String.length target - i - 1) in
      let query =
        List.filter_map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some j ->
                Some
                  ( String.sub kv 0 j,
                    String.sub kv (j + 1) (String.length kv - j - 1) )
            | None -> None)
          (String.split_on_char '&' qs)
      in
      (path, query)

(* ------------------------------------------------------------------ *)
(* Access logging + ring, shared by every completion path              *)
(* ------------------------------------------------------------------ *)

(* Everything the server records about a finished request: the route
   latency, the recent-request ring and the access line.
   [seconds] runs from accept to now: after the response is written on
   the accept lane, before it is written for /map (see [serve_job]). *)
let log_access t ~route ~meth ~path ~status ~outcome ~cache ~started
    ~summary () =
  let seconds = Prelude.Timer.wall () -. started in
  let id = Obs.Log.current_request_id () |> Option.value ~default:"" in
  (* the per-route latency distribution, every completion path *)
  with_registry (fun () -> Obs.Histogram.observe (route_hist route) seconds);
  remember t.debug
    {
      rr_id = id;
      rr_route = route;
      rr_status = status;
      rr_outcome = outcome;
      rr_cache = cache;
      rr_started = started;
      rr_seconds = seconds;
      rr_summary = summary;
    };
  let phase_fields =
    match summary with
    | None -> []
    | Some s ->
        [
          ("phases", phases_json s);
          ("resources", resources_json s.Obs.Scope.sc_resources);
        ]
  in
  let cache_fields =
    match cache with None -> [] | Some m -> [ ("cache", J.Str m) ]
  in
  Obs.Log.info "serve.access"
    ([
       ("route", J.Str route);
       ("method", J.Str meth);
       ("path", J.Str path);
       ("status", J.Int status);
       ("outcome", J.Str outcome);
       ("seconds", J.Float seconds);
     ]
    @ cache_fields @ phase_fields);
  if seconds > t.config.slow_seconds then
    Obs.Log.warn "serve.slow"
      ([
         ("route", J.Str route);
         ("status", J.Int status);
         ("seconds", J.Float seconds);
         ("threshold_seconds", J.Float t.config.slow_seconds);
       ]
      @ phase_fields)

(* ------------------------------------------------------------------ *)
(* Worker domains: /map jobs                                           *)
(* ------------------------------------------------------------------ *)

(* the /map handler proper, run inside the request scope on a worker
   domain: every Obs hook here writes the scope's sink, so no lock is
   needed until the scope closes.  It decides the answer without
   sending it: returns (status, cache marker, JSON body).  A hit here
   is a key that landed while its job waited in the queue. *)
let handle_map_in_scope t req ~queued_seconds =
  Obs.Histogram.observe h_queue_wait queued_seconds;
  let payload, outcome =
    Cache.find_or_compute t.cache ~key:(cache_key req) (fun () -> map_body req)
  in
  (match outcome with
  | Cache.Hit -> Obs.Counter.incr c_cache_hits
  | Cache.Join -> Obs.Counter.incr c_cache_joins
  | Cache.Miss -> Obs.Counter.incr c_cache_misses
  | Cache.Bypass -> ());
  (200, Some (Cache.outcome_label outcome), payload)

let map_outcome ~status cache =
  match cache with Some "hit" -> "cached" | _ -> outcome_of_status status

let respond_map fd ~echo ~status ~cache payload =
  let headers =
    echo @ Option.fold ~none:[] ~some:(fun m -> [ ("X-Cache", m) ]) cache
  in
  respond fd ~headers ~status ~content_type:"application/json" payload

(* A /map request: handled inside its scope on a worker domain.  The
   scope closes, and the response bytes, the route latency, the ring
   entry and the access line are recorded, before the response is
   written: a client that has read its answer (up to Content-Length,
   not waiting for the close) and asks /metrics, /debug/requests or
   /debug/trace/<id> at once finds the request there.  So the latency
   runs from accept to the response being ready, and a write to a
   peer that has gone still counts its bytes. *)
let serve_job t job =
  let fd = job.jb_fd in
  let echo = [ ("X-Request-Id", job.jb_id) ] in
  let queued_seconds =
    Float.max 0. (Prelude.Timer.wall () -. job.jb_accepted)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Obs.Log.with_request_id job.jb_id @@ fun () ->
      let scope = Obs.Scope.create ~id:job.jb_id () in
      let close () =
        with_registry (fun () ->
            Obs.Scope.close ~queue_wait:queued_seconds scope)
      in
      let handle () =
        let t0 = Prelude.Timer.wall () in
        Fun.protect
          ~finally:(fun () ->
            Obs.Histogram.observe h_request (Prelude.Timer.wall () -. t0))
          (fun () ->
            let ((status, _, _) as answer) =
              Obs.Span.time s_request (fun () ->
                  try handle_map_in_scope t job.jb_req ~queued_seconds
                  with e -> (500, None, error_body (Printexc.to_string e)))
            in
            count_request_scoped ~route:"map" ~status;
            answer)
      in
      let status, cache, payload =
        match Obs.Scope.run scope handle with
        | answer -> answer
        | exception e ->
            (* scope-level failure: still close under the lock, so the
               scope never stays open (blocking Obs.reset) and partial
               observations merge *)
            ignore (close ());
            raise e
      in
      let summary = Some (close ()) in
      with_registry (fun () ->
          count_response_bytes ~route:"map" (String.length payload));
      log_access t ~route:"map" ~meth:job.jb_meth ~path:"/map" ~status
        ~outcome:(map_outcome ~status cache) ~cache ~started:job.jb_accepted
        ~summary ();
      (* the peer may be gone: the request keeps the status it was
         answered with *)
      try ignore (respond_map fd ~echo ~status ~cache payload)
      with Unix.Unix_error _ -> ())

let worker_loop t =
  let rec go () =
    match Prelude.Bqueue.pop t.queue with
    | None -> () (* queue closed and drained: clean shutdown *)
    | Some job ->
        Atomic.incr t.busy;
        (try serve_job t job
         with e ->
           Obs.Log.error "serve.worker_crash"
             [ ("exn", J.Str (Printexc.to_string e)) ]);
        Atomic.decr t.busy;
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Accept lane: envelope parsing, inline routes, admission control     *)
(* ------------------------------------------------------------------ *)

let healthz_json t =
  J.Obj
    [
      ("status", J.Str "ok");
      ("workers", J.Int t.config.workers);
      ("workers_busy", J.Int (Atomic.get t.busy));
      ("queue_depth", J.Int (Prelude.Bqueue.length t.queue));
      ("queue_capacity", J.Int t.config.queue_depth);
      ("cache_entries", J.Int (Cache.length t.cache));
      ("cache_capacity", J.Int t.config.cache_entries);
      ("shed_total", J.Int (Obs.Counter.value c_shed));
    ]

(* scrape-time gauge refresh: gauges are never written from workers
   (a scope's sink holds none), only here, under the registry lock,
   from the server's atomics — single writer, no torn floats *)
let refresh_gauges t =
  let busy = Atomic.get t.busy in
  let queued = Prelude.Bqueue.length t.queue in
  Obs.Gauge.set_int g_inflight (busy + queued);
  Obs.Gauge.set_int g_queue_depth queued;
  Obs.Gauge.set_int g_workers t.config.workers;
  Obs.Gauge.set_int g_workers_busy busy;
  Obs.Gauge.set_int g_cache_size (Cache.length t.cache);
  Obs.Gauge.set_int g_cache_capacity t.config.cache_entries

let handle_debug_trace t fd ~req_id ~path ~query =
  let id = String.sub path 13 (String.length path - 13) in
  match find_request t.debug id with
  | Some { rr_summary = Some summary; _ } -> (
      match List.assoc_opt "format" query with
      | Some "folded" ->
          ( 200,
            respond fd
              ~headers:[ ("X-Request-Id", req_id) ]
              ~status:200 ~content_type:"text/plain"
              (Obs.Flame.of_slices summary.Obs.Scope.sc_slices) )
      | None | Some _ ->
          ( 200,
            respond_json fd
              ~headers:[ ("X-Request-Id", req_id) ]
              ~status:200
              (J.Obj
                 [
                   ("schema", J.Str "turbosyn-debug-trace/1");
                   ("request", Obs.Scope.summary_json summary);
                 ]) ))
  | Some { rr_summary = None; _ } | None ->
      ( 404,
        respond_error fd
          ~headers:[ ("X-Request-Id", req_id) ]
          ~status:404
          (Printf.sprintf "no traced request %S in the ring" id) )

(* a full (or zero-depth) queue sheds: never block the accept lane,
   never queue unboundedly.  Retry-After is a coarse hint — one
   in-flight compute is the unit of drain time. *)
let shed t fd ~echo ~meth ~path ~started =
  let bytes =
    respond_error fd
      ~headers:(echo @ [ ("Retry-After", "1") ])
      ~status:429 "server overloaded: queue full, retry later"
  in
  with_registry (fun () ->
      Obs.Counter.incr c_shed;
      count_request ~route:"map" ~status:429;
      count_response_bytes ~route:"map" bytes);
  log_access t ~route:"map" ~meth ~path ~status:429 ~outcome:"shed"
    ~cache:None ~started ~summary:None ()

(* A /map the accept lane answers itself, a body error or a completed
   cache entry, recorded as a worker records its answer: before the
   write.  A hit computes nothing, so it is never shed; writing its one
   cached body holds the lane while a slow reader takes it, as a
   /metrics answer does. *)
let answer_map t fd ~echo ~meth ~started ~status ~cache payload =
  with_registry (fun () ->
      if cache <> None then Obs.Counter.incr c_cache_hits;
      count_request ~route:"map" ~status;
      count_response_bytes ~route:"map" (String.length payload));
  log_access t ~route:"map" ~meth ~path:"/map" ~status
    ~outcome:(map_outcome ~status cache) ~cache ~started ~summary:None ();
  ignore (respond_map fd ~echo ~status ~cache payload)

(* true when fd ownership moved to the worker queue *)
let dispatch t fd =
  match read_request fd with
  | Unreadable ->
      count_request_unscoped ~route:"malformed" ~status:400;
      false
  | Reject (status, msg) ->
      (* counted before the answer: the peer may be gone already, and
         the accept loop drops a failed write *)
      count_request_unscoped ~route:"malformed" ~status;
      let bytes = respond_error fd ~status msg in
      with_registry (fun () -> count_response_bytes ~route:"malformed" bytes);
      false
  | Request (meth, target, headers, body) -> (
      let path, query = parse_target target in
      let req_id = request_id_of_headers headers in
      let started = Prelude.Timer.wall () in
      Obs.Log.with_request_id req_id @@ fun () ->
      let echo = [ ("X-Request-Id", req_id) ] in
      let inline ?(bytes = 0) route status summary =
        with_registry (fun () ->
            count_request ~route ~status;
            count_response_bytes ~route bytes);
        log_access t ~route ~meth ~path ~status
          ~outcome:(outcome_of_status status) ~cache:None ~started ~summary
          ();
        false
      in
      match (meth, path) with
      | ("POST" | "GET"), "/map" -> (
          match parse_map_request ~query ~body with
          | Error e ->
              answer_map t fd ~echo ~meth ~started ~status:400 ~cache:None
                (error_body e);
              false
          | Ok req -> (
              match Cache.find t.cache ~key:(cache_key req) with
              | Some payload ->
                  answer_map t fd ~echo ~meth ~started ~status:200
                    ~cache:(Some "hit") payload;
                  false
              | None ->
                  let job =
                    {
                      jb_fd = fd;
                      jb_id = req_id;
                      jb_meth = meth;
                      jb_req = req;
                      jb_accepted = started;
                    }
                  in
                  if Prelude.Bqueue.try_push t.queue job then true
                  else begin
                    shed t fd ~echo ~meth ~path ~started;
                    false
                  end))
      | "GET", "/healthz" ->
          let bytes =
            respond_json fd ~headers:echo ~status:200 (healthz_json t)
          in
          inline ~bytes "healthz" 200 None
      | "GET", "/metrics" ->
          let scrape =
            with_registry (fun () ->
                refresh_gauges t;
                Obs.Prometheus.render
                  ~exclude_prefixes:[ requests_prefix; response_bytes_prefix ]
                  ~extra:[ request_family (); response_bytes_family () ]
                  ())
          in
          let bytes =
            respond fd ~headers:echo ~status:200
              ~content_type:"text/plain; version=0.0.4" scrape
          in
          inline ~bytes "metrics" 200 None
      | "GET", "/debug/requests" ->
          let bytes =
            respond_json fd ~headers:echo ~status:200 (debug_requests_json t.debug)
          in
          inline ~bytes "debug" 200 None
      | "GET", _
        when String.length path > 13
             && String.sub path 0 13 = "/debug/trace/" ->
          let status, bytes = handle_debug_trace t fd ~req_id ~path ~query in
          inline ~bytes "debug" status None
      | _, ("/healthz" | "/metrics" | "/map" | "/debug/requests") ->
          let bytes =
            respond_error fd ~headers:echo ~status:405 "method not allowed"
          in
          inline ~bytes "method" 405 None
      | _ ->
          let bytes = respond_error fd ~headers:echo ~status:404 "not found" in
          inline ~bytes "other" 404 None)

let accept_loop t =
  let continue = ref true in
  while !continue && not (Atomic.get t.stopped) do
    match Unix.accept t.listen with
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* the listen socket was shut down under us: stop *)
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _ ->
        let handed_off =
          try dispatch t fd
          with Unix.Unix_error (_, _, _) -> false (* client went away *)
        in
        if not handed_off then
          try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let default_workers () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

let create ?(port = 0) ?(slow_seconds = 1.0) ?workers ?(queue_depth = 64)
    ?(cache_entries = 256) () =
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  if queue_depth < 0 then invalid_arg "Server.create: negative queue depth";
  if cache_entries < 0 then
    invalid_arg "Server.create: negative cache capacity";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  {
    listen = fd;
    port;
    config = { workers; queue_depth; cache_entries; slow_seconds };
    stopped = Atomic.make false;
    queue = Prelude.Bqueue.create ~capacity:queue_depth;
    cache = Cache.create ~capacity:cache_entries;
    busy = Atomic.make 0;
    debug = new_debug ();
  }

let port t = t.port
let workers t = t.config.workers

let run t =
  (* a client that disconnects mid-response must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* the workers run until the queue closes; the accept loop runs here
     and closes the queue on exit, which drains and releases them.  The
     first exception — the accept loop's, then the workers' in spawn
     order — is re-raised once all are joined. *)
  let outcome f =
    match f () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let workers =
    List.init t.config.workers (fun _ ->
        Domain.spawn (fun () -> outcome (fun () -> worker_loop t)))
  in
  let accept =
    outcome (fun () ->
        Fun.protect
          ~finally:(fun () -> Prelude.Bqueue.close t.queue)
          (fun () -> accept_loop t))
  in
  match List.find_map Fun.id (accept :: List.map Domain.join workers) with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* [shutdown] wakes a blocked [accept] (EINVAL) even from another
       domain; a plain [close] would not — the in-flight accept holds a
       reference to the socket and blocks forever *)
    (try Unix.shutdown t.listen Unix.SHUTDOWN_ALL
     with Unix.Unix_error (_, _, _) -> ());
    try Unix.close t.listen with Unix.Unix_error (_, _, _) -> ()
  end
