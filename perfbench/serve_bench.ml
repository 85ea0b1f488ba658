(* The serve-mix workload: one load-generator process runs two
   closed-loop clients against the real [turbosyn serve] binary started
   with its default flags.  About 95% of /map requests are hot keys,
   answered from the result cache; the rest are cold keys, each
   requested once.  One client also scrapes /metrics and checks /healthz
   at a fixed cadence. *)

open Prelude
open Common
module Synth = Turbosyn.Synth

type key = { circuit : string; k : int; algo : string }

let key_id key = Printf.sprintf "%s/k%d/%s" key.circuit key.k key.algo

let hot_keys =
  [
    { circuit = "bbara"; k = 5; algo = "turbosyn" };
    { circuit = "bbsse"; k = 5; algo = "turbomap" };
    { circuit = "cse"; k = 5; algo = "turbomap" };
    { circuit = "s1"; k = 5; algo = "turbomap" };
  ]

(* Every cold key the workload may draw: FlowSYN-s on each Table-1
   circuit, and TurboMap on the four cheapest, at K in {4, 5, 6} —
   disjoint from the hot keys. *)
let cold_pool =
  let ks = [ 4; 5; 6 ] in
  List.concat_map
    (fun (spec : Workloads.Suite.spec) ->
      List.map (fun k -> { circuit = spec.name; k; algo = "flowsyn-s" }) ks)
    Workloads.Suite.table1
  @ List.concat_map
      (fun circuit ->
        List.map (fun k -> { circuit; k; algo = "turbomap" }) [ 4; 6 ])
      [ "bbara"; "bbsse"; "cse"; "s1" ]

(* ------------------------------------------------------------------ *)
(* HTTP client                                                          *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  headers : (string * string) list;  (** lower-cased names *)
  body : string;
  seconds : float;
  ttfb : float;
}

let http ~port ~meth ~path ?(headers = []) ?(body = "") () =
  let t0 = Timer.wall () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let extra =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
      in
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: \
           application/json\r\nContent-Length: %d\r\n%sConnection: \
           close\r\n\r\n%s"
          meth path (String.length body) extra body
      in
      let b = Bytes.of_string req in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 16384 in
      let ttfb = ref nan in
      let rec recv () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          if Float.is_nan !ttfb then ttfb := Timer.wall () -. t0;
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        end
      in
      recv ();
      let seconds = Timer.wall () -. t0 in
      let raw = Buffer.contents buf in
      let head, body =
        let rec find i =
          if i + 4 > String.length raw then (raw, "")
          else if String.sub raw i 4 = "\r\n\r\n" then
            (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
          else find (i + 1)
        in
        find 0
      in
      let lines = String.split_on_char '\n' head in
      let status =
        match String.split_on_char ' ' (List.hd lines) with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      let headers =
        List.filter_map
          (fun line ->
            match String.index_opt line ':' with
            | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub line 0 i),
                    String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
            | None -> None)
          (List.tl lines)
      in
      { status; headers; body; seconds; ttfb = !ttfb })

let map_request ~port ~rid key =
  http ~port ~meth:"POST" ~path:"/map"
    ~headers:[ ("X-Request-Id", rid) ]
    ~body:
      (Printf.sprintf {|{"circuit": %S, "k": %d, "algo": %S}|} key.circuit key.k
         key.algo)
    ()

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                     *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; workers : int }

let stop server =
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Timer.wall () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when Timer.wall () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] server.pid)
    | _ -> ()
  in
  wait ()

let live : server list ref = ref []

let stop_all () =
  List.iter stop !live;
  live := []

(* Start [turbosyn serve] on an ephemeral port; its stderr goes to
   [log], from which the bound port is read. *)
let start ~binary ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () ->
        Unix.create_process binary [| binary; "serve"; "--port"; "0" |] null null fd)
  in
  let deadline = Timer.wall () +. 30. in
  let rec port () =
    let text = try read_file log with Sys_error _ -> "" in
    let marker = "listening on http://127.0.0.1:" in
    match
      List.find_map
        (fun line ->
          let ml = String.length marker in
          let rec at i =
            if i + ml > String.length line then None
            else if String.sub line i ml = marker then
              Scanf.sscanf (String.sub line (i + ml) (String.length line - i - ml)) "%d"
                Option.some
            else at (i + 1)
          in
          at 0)
        (String.split_on_char '\n' text)
    with
    | Some p -> p
    | None ->
        if Timer.wall () > deadline then begin
          stop { pid; port = 0; workers = 0 };
          failwith ("turbosyn serve did not report its port; see " ^ log)
        end;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("turbosyn serve exited at start; see " ^ log));
        Unix.sleepf 0.005;
        port ()
  in
  let port = port () in
  live := { pid; port; workers = 0 } :: !live;
  let rec healthy () =
    match http ~port ~meth:"GET" ~path:"/healthz" () with
    | { status = 200; body; _ } -> (
        match Option.bind (Result.to_option (J.of_string body)) (J.member "workers") with
        | Some (J.Int w) -> w
        | _ -> 0)
    | _ | (exception Unix.Unix_error _) ->
        if Timer.wall () > deadline then failwith "turbosyn serve never became healthy";
        Unix.sleepf 0.005;
        healthy ()
  in
  let workers = healthy () in
  { pid; port; workers }

(* ------------------------------------------------------------------ *)
(* Expected answers                                                     *)
(* ------------------------------------------------------------------ *)

type expect = { phi : string; luts : int; clock_period : int }

let build circuit =
  Workloads.Suite.build (Option.get (Workloads.Suite.find circuit))

let direct key =
  let r =
    Synth.run ~options:(Synth.default_options ~k:key.k ()) (algo_of_name key.algo) (build key.circuit)
  in
  { phi = Rat.to_string r.Synth.phi; luts = r.Synth.luts; clock_period = r.Synth.clock_period }

let answer body =
  match J.of_string body with
  | Ok doc -> (
      match (J.member "phi" doc, J.member "luts" doc, J.member "clock_period" doc) with
      | Some (J.Str phi), Some (J.Int luts), Some (J.Int clock_period) ->
          Some { phi; luts; clock_period }
      | _ -> None)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

type record = {
  key : key;
  rid : string;
  resp : response option;  (** [None] when the connection failed *)
}

let scrape_counters ~port =
  let r = http ~port ~meth:"GET" ~path:"/metrics" () in
  let values = Obs.Prometheus.counter_values r.body in
  fun name ->
    let series = "turbosyn_" ^ Obs.Prometheus.sanitize name ^ "_total" in
    Option.value ~default:0. (List.assoc_opt series values)

let run ~seed ~seconds ~trace ~binary ~work =
  let rng = Rng.create (seed * 104729 + 3) in
  (* cold keys: two per measured second, capped by the pool.  At the
     committed run length that is the whole pool, in one fixed order, so
     every seed computes the same misses in the same sequence and the
     seed sets which requests carry them and the hot-key sequence; a
     shorter run draws its subset from the seed. *)
  let pool = Array.of_list cold_pool in
  Rng.shuffle (Rng.create 20260) pool;
  let n_cold =
    max 2 (min (Array.length pool) (int_of_float (Float.round (2. *. seconds))))
  in
  let cold =
    if n_cold = Array.length pool then pool
    else begin
      let draw = Array.copy pool in
      Rng.shuffle rng draw;
      Array.sub draw 0 n_cold
    end
  in
  let n = 20 * n_cold in
  let hot = Array.of_list hot_keys in
  let seq = Array.init n (fun _ -> Rng.pick rng hot) in
  Array.iteri (fun b key -> seq.((20 * b) + Rng.int rng 20) <- key) cold;
  let log = Filename.concat work "serve.log" in
  Fun.protect ~finally:stop_all @@ fun () ->
  (* set-up: server start until the first /healthz 200, plus warm-up of
     the hot keys; three times, the last server carries the load *)
  let setup () =
    stop_all ();
    let t0 = Timer.wall () in
    let server = start ~binary ~log in
    List.iter
      (fun key ->
        let r = map_request ~port:server.port ~rid:("warm-" ^ key_id key) key in
        if r.status <> 200 then failwith ("warm-up failed: " ^ key_id key))
      hot_keys;
    (server, Timer.wall () -. t0)
  in
  let setups = List.init 3 (fun _ -> setup ()) in
  let server = fst (List.nth setups 2) in
  let setup_s = median (List.map snd setups) in
  (* expected answers from a direct Synth.run of every key *)
  let expected = Hashtbl.create 64 in
  List.iter
    (fun key -> Hashtbl.replace expected key (direct key))
    (hot_keys @ Array.to_list cold);
  (* layer probes timed directly on the key-set circuits *)
  let circuits =
    List.sort_uniq compare (List.map (fun k -> k.circuit) (hot_keys @ Array.to_list cold))
  in
  let build_ms, digest_ms =
    List.split
      (List.map
         (fun c ->
           let nl, tb = Timer.time (fun () -> build c) in
           let _, td = Timer.time (fun () -> Circuit.Canon.digest nl) in
           (tb *. 1e3, td *. 1e3))
         circuits)
  in
  let port = server.port in
  let before = scrape_counters ~port in
  let cpu0 = proc_cpu_seconds server.pid in
  let records = Array.make n None in
  let next = Atomic.make 0 in
  let scrapes = ref [] and checks = ref 0 and check_failures = ref 0 in
  let ring = Hashtbl.create 1024 in
  let poll_ring () =
    let r = http ~port ~meth:"GET" ~path:"/debug/requests" () in
    match Option.bind (Result.to_option (J.of_string r.body)) (J.member "requests") with
    | Some (J.List entries) ->
        List.iter
          (fun e ->
            match J.member "id" e with
            | Some (J.Str id) -> Hashtbl.replace ring id e
            | _ -> ())
          entries
    | _ -> ()
  in
  let client lane () =
    let own = ref 0 in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let key = seq.(i) in
        let rid = Printf.sprintf "pb%d-%d" seed i in
        let t0 = Timer.wall () in
        let resp = try Some (map_request ~port ~rid key) with Unix.Unix_error _ -> None in
        if trace then
          add_span
            {
              name =
                (match resp with
                | Some r -> Option.value ~default:(string_of_int r.status) (List.assoc_opt "x-cache" r.headers)
                | None -> "error");
              parent = key_id key;
              lane;
              t0;
              t1 = Timer.wall ();
              words = 0.;
            };
        records.(i) <- Some { key; rid; resp };
        incr own;
        if lane = 0 && !own mod 40 = 0 then begin
          (match http ~port ~meth:"GET" ~path:"/metrics" () with
          | r ->
              scrapes := r.seconds :: !scrapes;
              incr checks;
              if r.status <> 200 then incr check_failures
          | exception Unix.Unix_error _ -> incr checks; incr check_failures);
          (match http ~port ~meth:"GET" ~path:"/healthz" () with
          | r -> incr checks; if r.status <> 200 then incr check_failures
          | exception Unix.Unix_error _ -> incr checks; incr check_failures)
        end;
        if trace && lane = 0 && !own mod 60 = 0 then poll_ring ();
        loop ()
      end
    in
    loop ()
  in
  let t0 = Timer.wall () in
  let other = Thread.create (client 1) () in
  client 0 ();
  Thread.join other;
  let flow_s = Timer.wall () -. t0 in
  let cpu = proc_cpu_seconds server.pid -. cpu0 in
  let rss = peak_rss_mb (string_of_int server.pid) in
  if trace then poll_ring ();
  let after = scrape_counters ~port in
  (* checks: every /map answer is a 200 carrying the direct result, and
     all answers for one key are byte-identical *)
  let first_body = Hashtbl.create 64 in
  let records = Array.map Option.get records in
  Array.iter
    (fun rc ->
      let key = key_id rc.key in
      match rc.resp with
      | None -> fail ~key:rc.rid "%s: connection failed" key
      | Some r when r.status <> 200 -> fail ~key:rc.rid "%s: status %d" key r.status
      | Some r -> (
          (match Hashtbl.find_opt first_body rc.key with
          | None -> Hashtbl.replace first_body rc.key r.body
          | Some b when b <> r.body -> fail ~key:rc.rid "%s: answer differs from the first" key
          | Some _ -> ());
          let want = Hashtbl.find expected rc.key in
          match answer r.body with
          | None -> fail ~key:rc.rid "%s: unreadable answer" key
          | Some got when got <> want ->
              fail ~key:rc.rid "%s: phi=%s luts=%d period=%d, direct phi=%s luts=%d period=%d"
                key got.phi got.luts got.clock_period want.phi want.luts want.clock_period
          | Some _ -> ()))
    records;
  for i = 1 to !check_failures do
    fail ~key:(Printf.sprintf "check-%d" i) "/metrics or /healthz did not answer 200"
  done;
  let attempted = n + !checks in
  let failed = failed_keys () in
  (* QoR of the hot keys' answers: the same for every seed *)
  let hot_answers =
    List.filter_map
      (fun key -> Option.bind (Hashtbl.find_opt first_body key) answer)
      hot_keys
  in
  let ms l = List.map (fun s -> s *. 1e3) l in
  let with_resp f = Array.to_list records |> List.filter_map (fun rc -> Option.bind rc.resp (f rc)) in
  let lat = with_resp (fun _ r -> Some r.seconds) in
  let p99 = quantile 0.99 lat in
  let cache_of r = List.assoc_opt "x-cache" r.headers in
  let by_cache marker = with_resp (fun _ r -> if cache_of r = Some marker then Some r.seconds else None) in
  let joined field =
    with_resp (fun rc _ ->
        Option.bind (Hashtbl.find_opt ring rc.rid) (fun e ->
            match field e with
            | Some (J.Float f) -> Some f
            | Some (J.Int i) -> Some (float i)
            | _ -> None))
  in
  let counter name = after name -. before name in
  let layer =
    [
      ("serve_rps", float n /. flow_s);
      ("serve_p50_ms", median (ms lat));
      ("serve_p99_ms", p99 *. 1e3);
      ( "serve.p99_samples_beyond",
        float (List.length (List.filter (fun s -> s > p99) lat)) );
      ( "serve_within_slo_frac",
        float
          (List.length
             (with_resp (fun _ r -> if r.status = 200 && r.seconds <= 0.25 then Some () else None)))
        /. float n );
      ("serve_fail_frac", float failed /. float attempted);
      ("serve.hit_p50_ms", median (ms (by_cache "hit")));
      ("serve.miss_p50_ms", median (ms (by_cache "miss")));
      ("serve.ttfb_p50_ms", median (ms (with_resp (fun _ r -> Some r.ttfb))));
      ("serve.server_p50_ms", median (ms (joined (J.member "seconds"))));
      ("serve.scrape_p50_ms", median (ms !scrapes));
      ( "serve.queue_wait_mean_ms",
        mean
          (ms
             (joined (fun e ->
                  Option.bind (J.member "resources" e) (J.member "queue_wait_seconds")))) );
      ("serve.shed_count", float (List.length (with_resp (fun _ r -> if r.status = 429 then Some () else None))));
      ("serve.cache_hit_rate", float (List.length (by_cache "hit")) /. float n);
      ( "serve.response_bytes_mean",
        mean (with_resp (fun _ r -> Some (float (String.length r.body)))) );
      ("netlist.canon_digest_ms", median digest_ms);
      ("workloads.build_ms", median build_ms);
    ]
    @ counter_metrics counter
  in
  if trace then begin
    let trace_file = Filename.concat work (Printf.sprintf "trace-serve-mix-%d.json" seed) in
    write_trace trace_file;
    Printf.printf "perfbench: request trace written to %s\n" trace_file
  end;
  let nan_to_zero (name, v) = (name, if Float.is_nan v then 0. else v) in
  {
    attempted;
    failed;
    metrics =
      [
        ("setup_s", setup_s);
        ("flow_s", flow_s);
        ("flow_cpu_s", cpu);
        ("peak_rss_mb", rss);
        ("phi_geomean", geomean (List.map (fun a -> qor_phi a.phi) hot_answers));
        ("luts_total", float (List.fold_left (fun acc a -> acc + a.luts) 0 hot_answers));
      ]
      @ (if trace then List.map nan_to_zero layer else []);
    record =
      [
        ("requests", J.Int n);
        ("cold_keys", J.List (Array.to_list (Array.map (fun k -> J.Str (key_id k)) cold)));
        ("server_workers", J.Int server.workers);
        ( "keys",
          J.List
            (List.map
               (fun key ->
                 let e = Hashtbl.find expected key in
                 J.Obj
                   [
                     ("key", J.Str (key_id key));
                     ("phi", J.Str e.phi);
                     ("luts", J.Int e.luts);
                     ("clock_period", J.Int e.clock_period);
                   ])
               (hot_keys @ Array.to_list cold)) );
      ];
  }
