(* Integration tests for the HTTP serve mode: a live in-process server
   (the accept loop runs in its own domain), concurrent mapping requests
   checked byte-for-byte against the CLI pipeline through the shared
   renderer, and Prometheus scrapes validated with the exposition
   checker. *)

(* ---------------------------------------------------------------- *)
(* A minimal blocking HTTP client over Unix sockets                 *)
(* ---------------------------------------------------------------- *)

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let recv_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let n = Unix.read fd chunk 0 (Bytes.length chunk) in
    if n > 0 then (
      Buffer.add_subbytes buf chunk 0 n;
      go ())
  in
  go ();
  Buffer.contents buf

(* [http_full ~port ~meth ~path ()] returns (status code, lower-cased
   response headers, body).  Like curl, it reads the response only up to
   its Content-Length (to EOF when the header is absent) instead of
   waiting for the server to close the connection, so nothing the
   server does after writing the response is waited for. *)
let http_full ~port ~meth ~path ?(headers = []) ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let extra =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
      in
      send_all fd
        (Printf.sprintf
           "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n%s\
            Connection: close\r\n\r\n%s"
           meth path (String.length body) extra body);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      (* one read; false at EOF *)
      let read () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        Buffer.add_subbytes buf chunk 0 n;
        n > 0
      in
      let rec head () =
        match
          Str.search_forward (Str.regexp_string "\r\n\r\n")
            (Buffer.contents buf) 0
        with
        | i -> i + 4
        | exception Not_found ->
            if read () then head () else Buffer.length buf
      in
      let start = head () in
      let resp_headers =
        Buffer.sub buf 0 (max 0 (start - 4))
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.index_opt line ':' with
               | Some i ->
                   Some
                     ( String.lowercase_ascii
                         (String.trim (String.sub line 0 i)),
                       String.trim
                         (String.sub line (i + 1)
                            (String.length line - i - 1)) )
               | None -> None)
      in
      let complete () =
        match List.assoc_opt "content-length" resp_headers with
        | Some n -> Buffer.length buf - start >= int_of_string n
        | None -> false
      in
      while (not (complete ())) && read () do
        ()
      done;
      let resp = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' resp with
        | _http :: code :: _ -> int_of_string_opt code
        | _ -> None
      in
      ( Option.value ~default:0 status,
        resp_headers,
        String.sub resp start (String.length resp - start) ))

let http ~port ~meth ~path ?(body = "") () =
  let status, _, body = http_full ~port ~meth ~path ~body () in
  (status, body)

(* Value of one exposition series by exact name match (no label block),
   e.g. the [_count] series of a histogram family. *)
let series_value body name =
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

(* ---------------------------------------------------------------- *)
(* Server lifecycle                                                 *)
(* ---------------------------------------------------------------- *)

let with_server ?workers ?queue_depth ?cache_entries ?slos f =
  Obs.set_enabled true;
  Obs.reset ();
  (* keep per-request access-log lines out of the test output; the
     records still reach the in-memory ring and the request ring *)
  Obs.Log.to_null ();
  let server =
    Serve.Server.create ~port:0 ?workers ?queue_depth ?cache_entries ?slos ()
  in
  let srv = Domain.spawn (fun () -> Serve.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join srv;
      Obs.Log.to_stderr ();
      Obs.reset ();
      Obs.set_enabled false)
    (fun () -> f (Serve.Server.port server))

let map_body ~circuit ~algo =
  Printf.sprintf "{\"circuit\": %S, \"k\": 5, \"algo\": %S}" circuit algo

(* [load ~port ~domains ~per body_of] starts [domains] client domains
   that post [per] /map requests each over fresh connections; request
   [g] carries [body_of g] and the unique id "load-<g>".  [Domain.join]
   each to get its (id, status, headers) answers. *)
let load ~port ~domains ~per body_of =
  List.init domains (fun d ->
      Domain.spawn (fun () ->
          List.init per (fun i ->
              let g = (d * per) + i in
              let id = Printf.sprintf "load-%d" g in
              let status, hdrs, _ =
                http_full ~port ~meth:"POST" ~path:"/map"
                  ~headers:[ ("X-Request-Id", id) ]
                  ~body:(body_of g) ()
              in
              (id, status, hdrs))))

let hits replies =
  List.length
    (List.filter (fun (_, _, h) -> List.assoc_opt "x-cache" h = Some "hit")
       replies)

(* ---------------------------------------------------------------- *)
(* Concurrent mapping requests, byte-identical to the CLI path       *)
(* ---------------------------------------------------------------- *)

let test_concurrent_map () =
  with_server ~workers:4 (fun port ->
      (* Expected bodies: a direct [Synth.run] rendered through the
         same [result_json] the server uses.  Computed before any
         request is in flight — the pipeline is process-global and the
         server serializes it behind the accept loop. *)
      let circuits = [| "bbara"; "dk16" |] in
      let expected name =
        let spec = Option.get (Workloads.Suite.find name) in
        let nl = Workloads.Suite.build spec in
        let options = Turbosyn.Synth.default_options ~k:5 () in
        let r = Turbosyn.Synth.run ~options `Turbomap nl in
        Obs.Json.to_string (Serve.Server.result_json ~circuit:name ~k:5 r)
        ^ "\n"
      in
      let want = Array.map expected circuits in
      let jobs = 8 in
      let replies =
        Array.init jobs (fun i ->
            Domain.spawn (fun () ->
                http ~port ~meth:"POST" ~path:"/map"
                  ~body:
                    (map_body
                       ~circuit:circuits.(i mod Array.length circuits)
                       ~algo:"turbomap")
                  ()))
        |> Array.map Domain.join
      in
      Array.iteri
        (fun i (status, body) ->
          Alcotest.(check int) (Printf.sprintf "request %d status" i) 200 status;
          Alcotest.(check string)
            (Printf.sprintf "request %d body identical to direct run" i)
            want.(i mod Array.length circuits)
            body)
        replies;
      (* the GET form answers the same document *)
      let status, body =
        http ~port ~meth:"GET" ~path:"/map?circuit=bbara&k=5&algo=turbomap" ()
      in
      Alcotest.(check int) "GET form status" 200 status;
      Alcotest.(check string) "GET form body" want.(0) body;
      (* failing requests answer errors without killing the loop *)
      let status, _ =
        http ~port ~meth:"POST" ~path:"/map"
          ~body:(map_body ~circuit:"no-such-circuit" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "unknown circuit rejected" 400 status;
      List.iter
        (fun path ->
          let status, _ = http ~port ~meth:"GET" ~path () in
          Alcotest.(check int) ("unknown route " ^ path) 404 status)
        [ "/nowhere"; "/debug/prof" ];
      let status, body = http ~port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "alive after errors" 200 status;
      match Obs.Json.of_string body with
      | Error e -> Alcotest.failf "healthz not JSON: %s" e
      | Ok doc ->
          Alcotest.(check bool) "healthz status ok" true
            (Obs.Json.member "status" doc = Some (Obs.Json.Str "ok"));
          List.iter
            (fun field ->
              Alcotest.(check bool) ("healthz has " ^ field) true
                (match Obs.Json.member field doc with
                | Some (Obs.Json.Int _) -> true
                | _ -> false))
            [
              "workers"; "workers_busy"; "queue_depth"; "queue_capacity";
              "cache_entries"; "cache_capacity"; "shed_total";
            ])

(* ---------------------------------------------------------------- *)
(* Byte-identity across worker counts: the /map document must not    *)
(* depend on how many domains serve it, nor on hit vs miss           *)
(* ---------------------------------------------------------------- *)

let test_workers_invariance () =
  let expected =
    let spec = Option.get (Workloads.Suite.find "bbara") in
    let nl = Workloads.Suite.build spec in
    let options = Turbosyn.Synth.default_options ~k:5 () in
    let r = Turbosyn.Synth.run ~options `Turbomap nl in
    Obs.Json.to_string (Serve.Server.result_json ~circuit:"bbara" ~k:5 r)
    ^ "\n"
  in
  List.iter
    (fun workers ->
      with_server ~workers (fun port ->
          (* miss then hit: both must equal the direct run *)
          List.iter
            (fun attempt ->
              let status, hdrs, body =
                http_full ~port ~meth:"POST" ~path:"/map"
                  ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
                  ()
              in
              Alcotest.(check int)
                (Printf.sprintf "workers=%d %s status" workers attempt)
                200 status;
              Alcotest.(check string)
                (Printf.sprintf "workers=%d %s body" workers attempt)
                expected body;
              Alcotest.(check bool)
                (Printf.sprintf "workers=%d %s x-cache" workers attempt)
                true
                (List.assoc_opt "x-cache" hdrs = Some attempt))
            [ "miss"; "hit" ]))
    [ 1; 2; 4 ]

(* ---------------------------------------------------------------- *)
(* Result cache: X-Cache markers, single-flight dedup, bypass        *)
(* ---------------------------------------------------------------- *)

let test_cache_single_flight () =
  with_server ~workers:4 (fun port ->
      (* concurrent identical submissions: the pipeline runs once; one
         leader reports miss, joiners and later requests report hit,
         and every body is byte-identical *)
      let jobs = 6 in
      let replies =
        Array.init jobs (fun _ ->
            Domain.spawn (fun () ->
                http_full ~port ~meth:"POST" ~path:"/map"
                  ~body:(map_body ~circuit:"dk16" ~algo:"turbomap")
                  ()))
        |> Array.map Domain.join
      in
      let bodies =
        Array.map (fun (_, _, body) -> body) replies |> Array.to_list
      in
      Array.iter
        (fun (status, _, _) ->
          Alcotest.(check int) "single-flight status" 200 status)
        replies;
      List.iter
        (fun b ->
          Alcotest.(check string) "single-flight bodies identical"
            (List.hd bodies) b)
        bodies;
      let misses =
        Array.to_list replies
        |> List.filter (fun (_, hdrs, _) ->
               List.assoc_opt "x-cache" hdrs = Some "miss")
        |> List.length
      in
      Alcotest.(check int) "exactly one miss per key" 1 misses;
      Alcotest.(check int) "everyone else hit" (jobs - 1)
        (Array.to_list replies
        |> List.filter (fun (_, hdrs, _) ->
               List.assoc_opt "x-cache" hdrs = Some "hit")
        |> List.length);
      (* a different k is a different key: miss again *)
      let _, hdrs, _ =
        http_full ~port ~meth:"GET"
          ~path:"/map?circuit=dk16&k=4&algo=turbomap" ()
      in
      Alcotest.(check (option string)) "distinct key misses" (Some "miss")
        (List.assoc_opt "x-cache" hdrs);
      (* the hit outcome is visible in the request ring as "cached" *)
      let _, _, ring = http_full ~port ~meth:"GET" ~path:"/debug/requests" () in
      match Obs.Json.of_string ring with
      | Error e -> Alcotest.failf "/debug/requests: %s" e
      | Ok doc ->
          let requests =
            match Obs.Json.member "requests" doc with
            | Some (Obs.Json.List rs) -> rs
            | _ -> Alcotest.fail "no requests array"
          in
          Alcotest.(check bool) "ring has cached outcome" true
            (List.exists
               (fun r ->
                 Obs.Json.member "outcome" r
                 = Some (Obs.Json.Str "cached"))
               requests))

let test_cache_bypass () =
  with_server ~cache_entries:0 (fun port ->
      List.iter
        (fun _ ->
          let status, hdrs, _ =
            http_full ~port ~meth:"POST" ~path:"/map"
              ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
              ()
          in
          Alcotest.(check int) "bypass status" 200 status;
          Alcotest.(check (option string)) "cache disabled bypasses"
            (Some "bypass")
            (List.assoc_opt "x-cache" hdrs))
        [ (); () ])

(* ---------------------------------------------------------------- *)
(* Cached hot key: a repeated request served from the LRU must       *)
(* sustain at least 3x the throughput of the same request computed   *)
(* serially on one worker with the cache off                         *)
(* ---------------------------------------------------------------- *)

let test_hot_speedup () =
  let body _ = map_body ~circuit:"bbara" ~algo:"turbomap" in
  (* requests per second over [domains * per] requests, with every
     answer checked *)
  let throughput ?workers ?cache_entries ~domains ~per () =
    with_server ?workers ?cache_entries (fun port ->
        let t0 = Unix.gettimeofday () in
        let replies =
          List.concat_map Domain.join (load ~port ~domains ~per body)
        in
        let dt = Unix.gettimeofday () -. t0 in
        List.iter
          (fun (id, status, _) ->
            Alcotest.(check int) (id ^ " status") 200 status)
          replies;
        (float_of_int (domains * per) /. dt, hits replies))
  in
  let baseline, baseline_hits =
    throughput ~workers:1 ~cache_entries:0 ~domains:1 ~per:6 ()
  in
  Alcotest.(check int) "baseline computes every request" 0 baseline_hits;
  let host = Domain.recommended_domain_count () in
  let hot, hot_hits =
    throughput ~workers:(max 1 (min 4 (host - 1))) ~domains:4 ~per:12 ()
  in
  Alcotest.(check bool) "hot key hits the cache" true (hot_hits > 0);
  (* one core cannot overlap clients with the server, so the floor
     holds only where there is a second *)
  if host > 1 then
    Alcotest.(check bool)
      (Printf.sprintf "hot %.0f req/s >= 3x baseline %.0f req/s" hot baseline)
      true
      (hot >= 3. *. baseline)

(* ---------------------------------------------------------------- *)
(* Admission control: queue_depth 0 sheds every /map with 429 +      *)
(* Retry-After while the monitoring routes stay answerable           *)
(* ---------------------------------------------------------------- *)

let test_shed () =
  with_server ~queue_depth:0 (fun port ->
      let status, hdrs, _ =
        http_full ~port ~meth:"POST" ~path:"/map"
          ~headers:[ ("X-Request-Id", "itest-shed-1") ]
          ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "shed status" 429 status;
      Alcotest.(check bool) "retry-after present" true
        (List.assoc_opt "retry-after" hdrs <> None);
      Alcotest.(check (option string)) "shed echoes id"
        (Some "itest-shed-1")
        (List.assoc_opt "x-request-id" hdrs);
      (* monitoring survives overload *)
      let status, body = http ~port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz alive under shed" 200 status;
      (match Obs.Json.of_string body with
      | Ok doc ->
          Alcotest.(check bool) "healthz counts the shed" true
            (match Obs.Json.member "shed_total" doc with
            | Some (Obs.Json.Int n) -> n >= 1
            | _ -> false)
      | Error e -> Alcotest.failf "healthz not JSON: %s" e);
      let status, scrape = http ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "metrics alive under shed" 200 status;
      (match series_value scrape "turbosyn_serve_shed_total" with
      | Some v -> Alcotest.(check bool) "shed counter nonzero" true (v >= 1.)
      | None -> Alcotest.fail "turbosyn_serve_shed_total missing");
      (* the ring records the shed with its outcome *)
      let _, _, ring = http_full ~port ~meth:"GET" ~path:"/debug/requests" () in
      match Obs.Json.of_string ring with
      | Error e -> Alcotest.failf "/debug/requests: %s" e
      | Ok doc -> (
          let requests =
            match Obs.Json.member "requests" doc with
            | Some (Obs.Json.List rs) -> rs
            | _ -> Alcotest.fail "no requests array"
          in
          match
            List.find_opt
              (fun r ->
                Obs.Json.member "id" r = Some (Obs.Json.Str "itest-shed-1"))
              requests
          with
          | None -> Alcotest.fail "shed request missing from ring"
          | Some r ->
              Alcotest.(check bool) "shed outcome" true
                (Obs.Json.member "outcome" r = Some (Obs.Json.Str "shed"))))

(* ---------------------------------------------------------------- *)
(* Overload under contention: one busy worker and a one-slot queue   *)
(* shed the excess of eight concurrent clients with 429 +            *)
(* Retry-After, never a 5xx, while /healthz and /metrics keep        *)
(* answering                                                         *)
(* ---------------------------------------------------------------- *)

let test_overload_contention () =
  with_server ~workers:1 ~queue_depth:1 ~cache_entries:0 (fun port ->
      let clients =
        load ~port ~domains:8 ~per:4 (fun _ ->
            map_body ~circuit:"bbara" ~algo:"turbomap")
      in
      (* the accept lane answers while the clients are in flight *)
      let status, _ = http ~port ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz under load" 200 status;
      let replies = List.concat_map Domain.join clients in
      List.iter
        (fun (id, status, hdrs) ->
          match status with
          | 200 ->
              Alcotest.(check (option string)) (id ^ " echoes its id")
                (Some id)
                (List.assoc_opt "x-request-id" hdrs)
          | 429 ->
              Alcotest.(check bool) (id ^ " retry-after on 429") true
                (List.assoc_opt "retry-after" hdrs <> None)
          | s -> Alcotest.failf "%s: status %d, want 200 or 429" id s)
        replies;
      Alcotest.(check bool) "some requests shed" true
        (List.exists (fun (_, status, _) -> status = 429) replies);
      let _, scrape = http ~port ~meth:"GET" ~path:"/metrics" () in
      match Obs.Prometheus.validate scrape with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "post-load scrape invalid: %s" (String.concat "; " es))

(* ---------------------------------------------------------------- *)
(* Prometheus scrape: valid exposition, live histograms, monotone     *)
(* counters across scrapes                                           *)
(* ---------------------------------------------------------------- *)

let test_scrape () =
  with_server (fun port ->
      (* one full-pipeline request so the label engine, max-flow and
         expansion histograms all record observations *)
      let status, _ =
        http ~port ~meth:"POST" ~path:"/map"
          ~body:(map_body ~circuit:"bbara" ~algo:"turbosyn")
          ()
      in
      Alcotest.(check int) "turbosyn map status" 200 status;
      let status, scrape1 = http ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "first scrape status" 200 status;
      (match Obs.Prometheus.validate scrape1 with
      | Ok () -> ()
      | Error vs ->
          Alcotest.failf "first scrape invalid: %s" (String.concat "; " vs));
      List.iter
        (fun family ->
          let series = family ^ "_count" in
          match series_value scrape1 series with
          | Some v ->
              Alcotest.(check bool) (series ^ " nonzero") true (v > 0.)
          | None -> Alcotest.failf "series %s missing from scrape" series)
        [
          "turbosyn_maxflow_augmenting_paths_per_flow";
          "turbosyn_expand_nodes_per_build";
          "turbosyn_label_cut_test_seconds";
          "turbosyn_synth_e2e_seconds";
          "turbosyn_serve_request_seconds";
        ];
      (* serve v2 families: cache counters, pool/cache gauges, and the
         labeled per-route/status request family *)
      List.iter
        (fun series ->
          match series_value scrape1 series with
          | Some _ -> ()
          | None -> Alcotest.failf "series %s missing from scrape" series)
        [
          "turbosyn_serve_cache_hits_total";
          "turbosyn_serve_cache_misses_total";
          "turbosyn_serve_cache_joins_total";
          "turbosyn_serve_shed_total";
          "turbosyn_serve_queue_depth";
          "turbosyn_serve_workers";
          "turbosyn_serve_workers_busy";
          "turbosyn_serve_cache_size";
          "turbosyn_serve_cache_capacity";
        ];
      (match series_value scrape1 "turbosyn_serve_cache_misses_total" with
      | Some v -> Alcotest.(check bool) "miss counted" true (v >= 1.)
      | None -> Alcotest.fail "cache_misses missing");
      (match series_value scrape1 "turbosyn_serve_workers" with
      | Some v -> Alcotest.(check bool) "workers gauge live" true (v >= 1.)
      | None -> Alcotest.fail "workers gauge missing");
      (match
         series_value scrape1
           "turbosyn_serve_requests{route=\"map\",status=\"200\"}"
       with
      | Some v -> Alcotest.(check bool) "labeled requests" true (v >= 1.)
      | None -> Alcotest.fail "labeled serve_requests series missing");
      (* the flat rendering of the same underlying counter is excluded:
         one registry counter, one exposition series *)
      Alcotest.(check (option (float 0.)))
        "flat request counter suppressed" None
        (series_value scrape1 "turbosyn_serve_requests_map_200_total");
      (* a second scrape after more traffic: every counter series is
         still present and has not decreased *)
      let status, _ =
        http ~port ~meth:"POST" ~path:"/map"
          ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "second map status" 200 status;
      let status, scrape2 = http ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check int) "second scrape status" 200 status;
      (match Obs.Prometheus.validate scrape2 with
      | Ok () -> ()
      | Error vs ->
          Alcotest.failf "second scrape invalid: %s" (String.concat "; " vs));
      let before = Obs.Prometheus.counter_values scrape1 in
      let after = Obs.Prometheus.counter_values scrape2 in
      Alcotest.(check bool) "scrape has counters" true (before <> []);
      List.iter
        (fun (series, v1) ->
          match List.assoc_opt series after with
          | Some v2 ->
              if v2 < v1 then
                Alcotest.failf "counter %s regressed: %g -> %g" series v1 v2
          | None -> Alcotest.failf "counter %s vanished" series)
        before)

(* Request counters resolve their names in the process-global registry
   while worker domains run scopes and the accept lane renders scrapes:
   64 requests in flight on 4 workers, a scraper polling alongside, and
   the labeled family must end at exactly the number sent. *)
let test_scoped_counters_concurrent () =
  with_server ~workers:4 ~queue_depth:128 (fun port ->
      let sent = 64 in
      let stop = Atomic.make false in
      let scraper =
        Domain.spawn (fun () ->
            let scrapes = ref 0 in
            while not (Atomic.get stop) do
              let status, body = http ~port ~meth:"GET" ~path:"/metrics" () in
              if status <> 200 then Alcotest.failf "scrape status %d" status;
              (match Obs.Prometheus.validate body with
              | Ok () -> ()
              | Error vs ->
                  Alcotest.failf "scrape invalid: %s" (String.concat "; " vs));
              incr scrapes
            done;
            !scrapes)
      in
      (* every request is written before any response is read, so all
         64 are in flight at once *)
      let socks =
        List.init sent (fun i ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let body =
              map_body ~circuit:"bbara"
                ~algo:(if i mod 2 = 0 then "flowsyn-s" else "turbomap")
            in
            send_all fd
              (Printf.sprintf
                 "POST /map HTTP/1.1\r\nHost: localhost\r\n\
                  Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                 (String.length body) body);
            fd)
      in
      let statuses =
        List.map
          (fun fd ->
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                match String.split_on_char ' ' (recv_all fd) with
                | _ :: code :: _ -> int_of_string_opt code
                | _ -> None))
          socks
      in
      Atomic.set stop true;
      let scrapes = Domain.join scraper in
      Alcotest.(check bool) "scrapes ran alongside" true (scrapes > 0);
      List.iteri
        (fun i st ->
          Alcotest.(check (option int)) (Printf.sprintf "request %d" i)
            (Some 200) st)
        statuses;
      (* a worker answers before its scope closes: poll until the last
         close has merged, then the count must be exact *)
      let series = "turbosyn_serve_requests{route=\"map\",status=\"200\"}" in
      let rec settle tries =
        let _, body = http ~port ~meth:"GET" ~path:"/metrics" () in
        match series_value body series with
        | Some v when v >= float_of_int sent || tries = 0 -> Some v
        | _ ->
            Unix.sleepf 0.05;
            settle (tries - 1)
      in
      Alcotest.(check (option (float 0.)))
        "scraped map/200 count equals requests sent"
        (Some (float_of_int sent))
        (settle 100))

(* At debug level, every search.probe and synth.result record a cold
   /map computes carries the request id of the request that computed
   it, and each request's probe sequence is the one a direct run logs. *)
let test_event_stream_per_request () =
  with_server ~workers:2 (fun port ->
      Obs.Log.set_level Obs.Log.Debug;
      Fun.protect
        ~finally:(fun () ->
          Obs.Log.set_level Obs.Log.Info;
          Obs.Log.clear ())
        (fun () ->
          let requests = [ ("evt-bbara", "bbara"); ("evt-dk16", "dk16") ] in
          let events_of ~request_id name =
            List.filter
              (fun (r : Obs.Log.record) ->
                r.Obs.Log.request_id = request_id && r.Obs.Log.event = name)
              (Obs.Log.recent ())
          in
          let phis records =
            List.map
              (fun (r : Obs.Log.record) ->
                match List.assoc_opt "phi" r.Obs.Log.fields with
                | Some (Obs.Json.Str p) -> p
                | _ -> Alcotest.fail "record without phi")
              records
          in
          (* direct runs, before any request is in flight *)
          let direct =
            List.map
              (fun (_, circuit) ->
                Obs.Log.clear ();
                let nl =
                  Workloads.Suite.build
                    (Option.get (Workloads.Suite.find circuit))
                in
                let options = Turbosyn.Synth.default_options ~k:5 () in
                ignore (Turbosyn.Synth.run ~options `Turbomap nl);
                ( phis (events_of ~request_id:None "search.probe"),
                  phis (events_of ~request_id:None "synth.result") ))
              requests
          in
          Obs.Log.clear ();
          let replies =
            List.map
              (fun (id, circuit) ->
                Domain.spawn (fun () ->
                    http_full ~port ~meth:"POST" ~path:"/map"
                      ~headers:[ ("X-Request-Id", id) ]
                      ~body:(map_body ~circuit ~algo:"turbomap")
                      ()))
              requests
            |> List.map Domain.join
          in
          List.iter2
            (fun (id, _) (status, hdrs, _) ->
              Alcotest.(check int) (id ^ " status") 200 status;
              Alcotest.(check (option string)) (id ^ " computed cold")
                (Some "miss") (List.assoc_opt "x-cache" hdrs))
            requests replies;
          let ids = List.map (fun (id, _) -> Some id) requests in
          List.iter
            (fun (r : Obs.Log.record) ->
              if r.Obs.Log.event = "search.probe"
                 || r.Obs.Log.event = "synth.result"
              then
                Alcotest.(check bool)
                  (r.Obs.Log.event ^ " carries a request id") true
                  (List.mem r.Obs.Log.request_id ids))
            (Obs.Log.recent ());
          List.iter2
            (fun (id, circuit) (probes, result) ->
              Alcotest.(check bool) (circuit ^ " probes some phi") true
                (probes <> []);
              Alcotest.(check (list string))
                (id ^ " probe sequence equals the direct run")
                probes
                (phis (events_of ~request_id:(Some id) "search.probe"));
              Alcotest.(check (list string))
                (id ^ " one result, the direct run's phi")
                result
                (phis (events_of ~request_id:(Some id) "synth.result")))
            requests direct))

(* ---------------------------------------------------------------- *)
(* Correlation ids: header extraction, echo, ring, per-request trace *)
(* ---------------------------------------------------------------- *)

let test_request_id_extraction () =
  (* pure header logic, no server needed *)
  Alcotest.(check string) "x-request-id wins" "client-id-1"
    (Serve.Server.request_id_of_headers
       [
         ("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
         ("x-request-id", "client-id-1");
       ]);
  Alcotest.(check string) "traceparent trace-id"
    "4bf92f3577b34da6a3ce929d0e0e4736"
    (Serve.Server.request_id_of_headers
       [ ("traceparent", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01") ]);
  (* malformed ids are replaced, not propagated *)
  List.iter
    (fun bad ->
      let id = Serve.Server.request_id_of_headers [ ("x-request-id", bad) ] in
      Alcotest.(check bool)
        (Printf.sprintf "bad id %S regenerated" bad)
        true
        (id <> bad && String.length id = 16))
    [ ""; "has space"; "semi;colon"; String.make 80 'a' ];
  Alcotest.(check bool) "generated without headers" true
    (String.length (Serve.Server.request_id_of_headers []) = 16);
  Alcotest.(check string) "outcomes" "served,rejected,shed,failed"
    (String.concat ","
       (List.map Serve.Server.outcome_of_status [ 200; 400; 429; 500 ]))

let test_request_tracing () =
  with_server (fun port ->
      (* client-supplied id round-trips through /map *)
      let status, hdrs, _ =
        http_full ~port ~meth:"POST" ~path:"/map"
          ~headers:[ ("X-Request-Id", "itest-map-1") ]
          ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "map status" 200 status;
      Alcotest.(check (option string)) "id echoed" (Some "itest-map-1")
        (List.assoc_opt "x-request-id" hdrs);
      (* server-generated ids are distinct per request *)
      let _, h1, _ = http_full ~port ~meth:"GET" ~path:"/healthz" () in
      let _, h2, _ = http_full ~port ~meth:"GET" ~path:"/healthz" () in
      let gen h = List.assoc_opt "x-request-id" h in
      Alcotest.(check bool) "generated ids present and distinct" true
        (gen h1 <> None && gen h1 <> gen h2);
      (* a failing request keeps its id and lands as "rejected" *)
      let status, hdrs, _ =
        http_full ~port ~meth:"POST" ~path:"/map"
          ~headers:[ ("X-Request-Id", "itest-bad-1") ]
          ~body:(map_body ~circuit:"no-such" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "bad map status" 400 status;
      Alcotest.(check (option string)) "id echoed on error"
        (Some "itest-bad-1")
        (List.assoc_opt "x-request-id" hdrs);
      (* the ring lists both, newest first, with outcomes and phases *)
      let status, _, body =
        http_full ~port ~meth:"GET" ~path:"/debug/requests" ()
      in
      Alcotest.(check int) "debug requests status" 200 status;
      let doc =
        match Obs.Json.of_string body with
        | Ok d -> d
        | Error e -> Alcotest.failf "/debug/requests: %s" e
      in
      Alcotest.(check bool) "ring schema" true
        (Obs.Json.member "schema" doc
        = Some (Obs.Json.Str "turbosyn-debug-requests/1"));
      let requests =
        match Obs.Json.member "requests" doc with
        | Some (Obs.Json.List rs) -> rs
        | _ -> Alcotest.fail "no requests array"
      in
      let find id =
        List.find_opt
          (fun r -> Obs.Json.member "id" r = Some (Obs.Json.Str id))
          requests
      in
      (match find "itest-map-1" with
      | None -> Alcotest.fail "map request missing from ring"
      | Some r ->
          Alcotest.(check bool) "served outcome" true
            (Obs.Json.member "outcome" r = Some (Obs.Json.Str "served"));
          Alcotest.(check bool) "has phases" true
            (match Obs.Json.member "phases" r with
            | Some (Obs.Json.Obj phases) ->
                List.mem_assoc "synth.total" phases
            | _ -> false));
      (match find "itest-bad-1" with
      | None -> Alcotest.fail "rejected request missing from ring"
      | Some r ->
          Alcotest.(check bool) "rejected outcome" true
            (Obs.Json.member "outcome" r = Some (Obs.Json.Str "rejected")));
      (* per-request trace: summary document *)
      let status, _, body =
        http_full ~port ~meth:"GET" ~path:"/debug/trace/itest-map-1" ()
      in
      Alcotest.(check int) "trace status" 200 status;
      (match Obs.Json.of_string body with
      | Error e -> Alcotest.failf "/debug/trace: %s" e
      | Ok doc -> (
          Alcotest.(check bool) "trace schema" true
            (Obs.Json.member "schema" doc
            = Some (Obs.Json.Str "turbosyn-debug-trace/1"));
          match Obs.Json.member "request" doc with
          | Some req ->
              Alcotest.(check bool) "trace id" true
                (Obs.Json.member "id" req
                = Some (Obs.Json.Str "itest-map-1"));
              Alcotest.(check bool) "trace has slices" true
                (match Obs.Json.member "slices" req with
                | Some (Obs.Json.List (_ :: _)) -> true
                | _ -> false)
          | None -> Alcotest.fail "no request member"));
      (* folded form: well-formed stacks rooted at serve.request *)
      let status, _, folded =
        http_full ~port ~meth:"GET"
          ~path:"/debug/trace/itest-map-1?format=folded" ()
      in
      Alcotest.(check int) "folded status" 200 status;
      Alcotest.(check bool) "folded rooted at serve.request" true
        (String.length folded >= 13
        && String.sub folded 0 13 = "serve.request");
      String.split_on_char '\n' folded
      |> List.iter (fun line ->
             if line <> "" then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "malformed folded line %S" line
               | Some i -> (
                   match
                     int_of_string_opt
                       (String.sub line (i + 1) (String.length line - i - 1))
                   with
                   | Some w when w > 0 -> ()
                   | _ -> Alcotest.failf "bad weight in %S" line));
      (* chrome form parses as a trace document *)
      let status, _, chrome =
        http_full ~port ~meth:"GET"
          ~path:"/debug/trace/itest-map-1?format=chrome" ()
      in
      Alcotest.(check int) "chrome status" 200 status;
      (match Obs.Json.of_string chrome with
      | Ok doc ->
          Alcotest.(check bool) "chrome traceEvents" true
            (match Obs.Json.member "traceEvents" doc with
            | Some (Obs.Json.List _) -> true
            | _ -> false)
      | Error e -> Alcotest.failf "chrome trace: %s" e);
      (* unknown and evicted ids answer 404 *)
      let status, _, _ =
        http_full ~port ~meth:"GET" ~path:"/debug/trace/nonexistent" ()
      in
      Alcotest.(check int) "unknown trace id" 404 status;
      (* non-map ring entries have no retained trace *)
      let healthz_id = Option.get (gen h1) in
      let status, _, _ =
        http_full ~port ~meth:"GET"
          ~path:("/debug/trace/" ^ healthz_id)
          ()
      in
      Alcotest.(check int) "untraced route answers 404" 404 status)

(* A /map request is in the recent-request ring before its response
   goes out, so a client may follow it into /debug/trace/<id> at once.
   One worker, sequential cold keys: the trace request races the
   worker's bookkeeping after every answer. *)
let test_trace_after_map () =
  (* POST /map, return status and cache marker *)
  let map_answer ~port ~id body =
    let status, headers, _ =
      http_full ~port ~meth:"POST" ~path:"/map"
        ~headers:[ ("X-Request-Id", id) ]
        ~body ()
    in
    (status, List.assoc "x-cache" headers)
  in
  with_server ~workers:1 (fun port ->
      let keys =
        List.concat_map
          (fun circuit -> [ (circuit, 4); (circuit, 5) ])
          [
            "bbara"; "bbsse"; "cse"; "dk16"; "donfile"; "ex1"; "keyb"; "s1";
            "tbk"; "s298"; "s420"; "s526";
          ]
      in
      List.iteri
        (fun i (circuit, k) ->
          let id = Printf.sprintf "itest-cold-%d" i in
          let status, cache =
            map_answer ~port ~id
              (Printf.sprintf
                 "{\"circuit\": %S, \"k\": %d, \"algo\": \"flowsyn-s\"}"
                 circuit k)
          in
          Alcotest.(check int) (id ^ " map status") 200 status;
          Alcotest.(check string) (id ^ " cold") "miss" cache;
          let status, _, _ =
            http_full ~port ~meth:"GET" ~path:("/debug/trace/" ^ id) ()
          in
          Alcotest.(check int) (id ^ " trace at once") 200 status)
        keys)

(* Each server keeps its own recent-request ring and SLO exemplars: two
   servers in one process, each answering its own requests, must list
   only their own request ids in /debug/requests and among the
   /debug/slo exemplars.  Every response is read only up to its
   Content-Length, as curl does, so bookkeeping a server does after
   writing is not waited for. *)
let test_servers_own_rings () =
  let slos =
    match Obs.Slo.parse_all [ "route=/map,p99=250ms,err=0.1%" ] with
    | Ok slos -> slos
    | Error e -> Alcotest.failf "slo spec: %s" e
  in
  Obs.set_enabled true;
  Obs.reset ();
  Obs.Log.to_null ();
  let start () =
    let server = Serve.Server.create ~port:0 ~workers:1 ~slos () in
    (server, Domain.spawn (fun () -> Serve.Server.run server))
  in
  let servers = [ ("a", start ()); ("b", start ()) ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, (server, _)) -> Serve.Server.stop server) servers;
      List.iter (fun (_, (_, d)) -> Domain.join d) servers;
      Obs.Log.to_stderr ();
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      let port name = Serve.Server.port (fst (List.assoc name servers)) in
      let get name path =
        let status, _, body =
          http_full ~port:(port name) ~meth:"GET" ~path
            ~headers:[ ("X-Request-Id", name ^ "-debug") ]
            ()
        in
        Alcotest.(check int) (name ^ " " ^ path) 200 status;
        match Obs.Json.of_string body with
        | Ok doc -> doc
        | Error e -> Alcotest.failf "%s %s: %s" name path e
      in
      let map_ids name = List.init 2 (Printf.sprintf "%s-map-%d" name) in
      (* interleave the two servers' requests *)
      List.iter
        (fun i ->
          List.iter
            (fun (name, _) ->
              let id = List.nth (map_ids name) i in
              let status, _, _ =
                http_full ~port:(port name) ~meth:"POST" ~path:"/map"
                  ~headers:[ ("X-Request-Id", id) ]
                  ~body:(map_body ~circuit:"bbara" ~algo:"flowsyn-s")
                  ()
              in
              Alcotest.(check int) (id ^ " status") 200 status)
            servers)
        [ 0; 1 ];
      let str_member k j =
        match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> ""
      in
      let list_member k j =
        match Obs.Json.member k j with Some (Obs.Json.List l) -> l | _ -> []
      in
      List.iter
        (fun (name, _) ->
          let own id =
            List.mem id (map_ids name) || String.equal id (name ^ "-debug")
          in
          let ring = list_member "requests" (get name "/debug/requests") in
          let ids = List.map (str_member "id") ring in
          List.iter
            (fun id ->
              Alcotest.(check bool)
                (Printf.sprintf "server %s lists only its own ids (%s)" name id)
                true (own id))
            ids;
          Alcotest.(check (list string))
            (name ^ " map requests in the ring")
            (map_ids name)
            (List.sort compare
               (List.filter_map
                  (fun r ->
                    if str_member "route" r = "map" then Some (str_member "id" r)
                    else None)
                  ring));
          let slowest =
            List.concat_map (list_member "slowest")
              (list_member "objectives" (get name "/debug/slo"))
          in
          (* a /map exemplar is recorded after its response is written,
             so the latest one may not be there yet *)
          Alcotest.(check bool) (name ^ " has exemplars") true (slowest <> []);
          List.iter
            (fun ex ->
              let id = str_member "id" ex in
              Alcotest.(check bool)
                (Printf.sprintf "server %s exemplar is its own (%s)" name id)
                true
                (List.mem id (map_ids name)))
            slowest)
        servers)

(* A request scope keeps at most [Obs.Scope.slice_capacity] slices, so
   the ring's retained slices stay under 256 x that bound however heavy
   the requests are.  bbara TurboSYN records ~11k slices. *)
let test_ring_slices_bounded () =
  with_server ~workers:1 ~cache_entries:0 (fun port ->
      let cap = Obs.Scope.slice_capacity in
      let trace_slices id =
        let status, _, body =
          http_full ~port ~meth:"GET" ~path:("/debug/trace/" ^ id) ()
        in
        Alcotest.(check int) (id ^ " trace status") 200 status;
        match Obs.Json.of_string body with
        | Error e -> Alcotest.failf "/debug/trace/%s: %s" id e
        | Ok doc -> (
            let req = Option.get (Obs.Json.member "request" doc) in
            let member k = Obs.Json.member k req in
            match (member "slices", member "dropped_slices") with
            | Some (Obs.Json.List l), Some (Obs.Json.Int d) ->
                (List.length l, d)
            | _ -> Alcotest.failf "%s: no slices" id)
      in
      for i = 1 to 3 do
        let id = Printf.sprintf "itest-heavy-%d" i in
        let status, _, _ =
          http_full ~port ~meth:"POST" ~path:"/map"
            ~headers:[ ("X-Request-Id", id) ]
            ~body:(map_body ~circuit:"bbara" ~algo:"turbosyn")
            ()
        in
        Alcotest.(check int) (id ^ " map status") 200 status;
        let kept, dropped = trace_slices id in
        Alcotest.(check int) (id ^ " slices capped") cap kept;
        Alcotest.(check bool) (id ^ " overflow counted") true (dropped > 0)
      done;
      (* the ring's retained slices, earlier cases' entries included *)
      let _, _, body = http_full ~port ~meth:"GET" ~path:"/debug/requests" () in
      match
        Result.map (Obs.Json.member "retained_slices") (Obs.Json.of_string body)
      with
      | Ok (Some (Obs.Json.Int n)) ->
          Alcotest.(check bool) "the heavy traces are retained" true
            (n >= 3 * cap);
          Alcotest.(check bool) "ring slices within 256 x cap" true
            (n <= 256 * cap)
      | _ -> Alcotest.fail "/debug/requests: no retained_slices")

(* ---------------------------------------------------------------- *)
(* Response accounting: Content-Length and the per-route bytes family *)
(* ---------------------------------------------------------------- *)

let test_response_bytes () =
  with_server (fun port ->
      (* every response declares its exact body length *)
      let content_length hdrs body what =
        match List.assoc_opt "content-length" hdrs with
        | None -> Alcotest.failf "%s: no Content-Length" what
        | Some v ->
            Alcotest.(check string)
              (what ^ " content-length matches body")
              (string_of_int (String.length body))
              v
      in
      let _, hhdrs, hbody = http_full ~port ~meth:"GET" ~path:"/healthz" () in
      content_length hhdrs hbody "/healthz";
      let status, mhdrs, mbody =
        http_full ~port ~meth:"POST" ~path:"/map"
          ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "map status" 200 status;
      content_length mhdrs mbody "/map";
      (* ... and the bytes written land on the per-route counter,
         rendered as one labelled family on the scrape *)
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      (match
         series_value scrape
           "turbosyn_serve_response_bytes_total{route=\"map\"}"
       with
      | None -> Alcotest.fail "no response-bytes series for /map"
      | Some v ->
          Alcotest.(check bool) "map bytes cover the body" true
            (v >= float_of_int (String.length mbody)));
      (match
         series_value scrape
           "turbosyn_serve_response_bytes_total{route=\"healthz\"}"
       with
      | None -> Alcotest.fail "no response-bytes series for /healthz"
      | Some v ->
          Alcotest.(check bool) "healthz bytes cover the body" true
            (v >= float_of_int (String.length hbody)));
      (* the flat per-route counters stay off the scrape — only the
         labelled family renders *)
      Alcotest.(check bool) "flat counter suppressed" true
        (series_value scrape "turbosyn_serve_response_bytes_map_total" = None))

(* Send [text] raw on a fresh connection, run [f] on the open socket,
   close it.  The socket has a 10 s receive timeout: a server that never
   answers fails the test instead of hanging it. *)
let with_raw_conn ~port text f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      send_all fd text;
      f fd)

(* The status code of the response read to EOF from [fd]; 0 if none. *)
let recv_status fd =
  match String.split_on_char ' ' (recv_all fd) with
  | _http :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
  | _ -> 0

(* A raw request whose head declares [content_length] while only
   [body] follows; [close_send] half-closes the connection after it.
   Returns the response status. *)
let raw_request ~port ~content_length ~body ~close_send =
  with_raw_conn ~port
    (Printf.sprintf
       "POST /map HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       content_length body)
    (fun fd ->
      if close_send then Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_status fd)

let test_body_limits () =
  with_server (fun port ->
      (* a declared body over 16 MiB is refused before it is read: the
         client sends none of it and still gets its answer *)
      Alcotest.(check int) "oversized body" 413
        (raw_request ~port ~content_length:20_000_000 ~body:""
           ~close_send:false);
      (* a peer that stops short of Content-Length is not parsed as if
         its body were complete *)
      let body = map_body ~circuit:"bbara" ~algo:"turbomap" in
      Alcotest.(check int) "short body" 400
        (raw_request ~port
           ~content_length:(String.length body + 10)
           ~body ~close_send:true);
      (* exactly 16 MiB is still within the limit: a short body of that
         declared length is a 400, not a 413 *)
      Alcotest.(check int) "limit itself" 400
        (raw_request ~port ~content_length:(1 lsl 24) ~body:""
           ~close_send:true);
      (* both land under route "malformed" *)
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      let count status =
        series_value scrape
          (Printf.sprintf
             "turbosyn_serve_requests{route=\"malformed\",status=\"%d\"}"
             status)
      in
      Alcotest.(check (option (float 0.))) "413 counted" (Some 1.) (count 413);
      Alcotest.(check (option (float 0.))) "400 counted" (Some 2.) (count 400);
      (* the server still maps after both *)
      let status, _ = http ~port ~meth:"POST" ~path:"/map" ~body () in
      Alcotest.(check int) "still serving" 200 status)

(* A raw POST /map carrying one Content-Length line per entry of
   [lengths], written as given, before [body].  Returns the status and
   the whole response. *)
let raw_map ~port ~lengths body =
  let cl =
    String.concat ""
      (List.map (Printf.sprintf "Content-Length: %s\r\n") lengths)
  in
  with_raw_conn ~port
    (Printf.sprintf
       "POST /map HTTP/1.1\r\nHost: localhost\r\n%sConnection: close\r\n\r\n%s"
       cl body)
    (fun fd ->
      let resp = recv_all fd in
      let status =
        match String.split_on_char ' ' resp with
        | _http :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      (status, resp))

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* Content-Length must be 1*DIGIT, and duplicates must agree; anything
   else is a 400 under route "malformed", answered at once.  The body is
   exactly the declared bytes, not whatever else the peer sent. *)
let test_content_length () =
  with_server (fun port ->
      let body = map_body ~circuit:"bbara" ~algo:"turbomap" in
      let len = string_of_int (String.length body) in
      let bad =
        [
          [ "-5" ];
          [ "abc" ];
          [ "0x32" ];
          [ "5_0" ];
          [ "+5" ];
          [ "" ];
          [ len ^ ", " ^ len ];
          [ len; "5" ];
        ]
      in
      List.iter
        (fun lengths ->
          let what = "Content-Length " ^ String.concat " / " lengths in
          let status, resp = raw_map ~port ~lengths body in
          Alcotest.(check int) what 400 status;
          Alcotest.(check bool) (what ^ ": named") true
            (contains resp "malformed Content-Length"))
        bad;
      (* a declared length shorter than what was sent cuts the body *)
      let status, resp = raw_map ~port ~lengths:[ "5" ] body in
      Alcotest.(check int) "short declared length" 400 status;
      Alcotest.(check bool) "cut body is not JSON" true
        (contains resp "invalid JSON body");
      (* agreeing duplicates and leading zeros are still one length *)
      Alcotest.(check int) "agreeing duplicates" 200
        (fst (raw_map ~port ~lengths:[ len; len ] body));
      Alcotest.(check int) "leading zeros" 200
        (fst (raw_map ~port ~lengths:[ "00" ^ len ] body));
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (option (float 0.)))
        "counted under malformed"
        (Some (float_of_int (List.length bad)))
        (series_value scrape
           "turbosyn_serve_requests{route=\"malformed\",status=\"400\"}"))

(* A client that sends nothing, or half a request head, and then stays
   silent gets 408 once the 5 s read deadline expires.  The accept lane
   stops waiting for it then, so a /healthz sent meanwhile is answered
   within the deadline plus a second. *)
let test_read_deadline () =
  let read_timeout = 5.0 in
  with_server (fun port ->
      List.iter
        (fun (what, partial) ->
          with_raw_conn ~port partial (fun silent ->
              let t0 = Unix.gettimeofday () in
              let health =
                with_raw_conn ~port
                  "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
                  recv_status
              in
              let waited = Unix.gettimeofday () -. t0 in
              Alcotest.(check int) (what ^ ": healthz answered") 200 health;
              Alcotest.(check bool)
                (Printf.sprintf "%s: healthz within deadline + 1 s (%.2fs)"
                   what waited)
                true
                (waited <= read_timeout +. 1.);
              Alcotest.(check int) (what ^ ": 408") 408 (recv_status silent)))
        [ ("silent", ""); ("half a head", "GET /healthz HTTP/1.1\r\nHo") ];
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (option (float 0.)))
        "408 counted under malformed" (Some 2.)
        (series_value scrape
           "turbosyn_serve_requests{route=\"malformed\",status=\"408\"}"))

(* ---------------------------------------------------------------- *)
(* SLO endpoints                                                     *)
(* ---------------------------------------------------------------- *)

let test_profiling_and_slo () =
  let slos =
    match Obs.Slo.parse_all [ "route=/map,p99=250ms,err=0.1%" ] with
    | Ok slos -> slos
    | Error e -> Alcotest.failf "slo spec: %s" e
  in
  with_server ~slos (fun port ->
      (* served bytes are identical with an objective configured: the
         response must equal a direct rendering *)
      let expected =
        match
          Serve.Server.map_response ~circuit:"bbara" ~k:5
            ~algo:(Option.get (Turbosyn.Synth.algo_of_name "turbomap"))
        with
        | Ok doc -> Obs.Json.to_string doc ^ "\n"
        | Error e -> Alcotest.failf "direct map: %s" e
      in
      let status, _, body =
        http_full ~port ~meth:"POST" ~path:"/map"
          ~body:(map_body ~circuit:"bbara" ~algo:"turbomap")
          ()
      in
      Alcotest.(check int) "map status" 200 status;
      Alcotest.(check string) "byte-identical to the direct rendering"
        expected body;
      (* /debug/slo evaluates the configured objective against the
         route histogram, exemplars linking into /debug/trace *)
      let status, _, body =
        http_full ~port ~meth:"GET" ~path:"/debug/slo" ()
      in
      Alcotest.(check int) "slo status" 200 status;
      let doc =
        match Obs.Json.of_string body with
        | Ok d -> d
        | Error e -> Alcotest.failf "/debug/slo: %s" e
      in
      Alcotest.(check bool) "slo schema" true
        (Obs.Json.member "schema" doc = Some (Obs.Json.Str "turbosyn-slo/1"));
      let objective =
        match Obs.Json.member "objectives" doc with
        | Some (Obs.Json.List [ o ]) -> o
        | _ -> Alcotest.fail "expected exactly one objective"
      in
      Alcotest.(check bool) "objective route" true
        (Obs.Json.member "route" objective = Some (Obs.Json.Str "/map"));
      Alcotest.(check bool) "histogram named for reproduction" true
        (Obs.Json.member "histogram" objective
        = Some (Obs.Json.Str "serve.route_seconds.map"));
      (match Obs.Json.member "latency" objective with
      | Some lat ->
          Alcotest.(check bool) "one served request counted" true
            (Obs.Json.member "count" lat = Some (Obs.Json.Int 1));
          Alcotest.(check bool) "good at or under target" true
            (Obs.Json.member "good" lat = Some (Obs.Json.Int 1));
          Alcotest.(check bool) "burn rate present" true
            (Obs.Json.member "burn_rate" lat <> None)
      | None -> Alcotest.fail "no latency verdict");
      (match Obs.Json.member "errors" objective with
      | Some errs ->
          Alcotest.(check bool) "no errors burned" true
            (Obs.Json.member "errors" errs = Some (Obs.Json.Int 0))
      | None -> Alcotest.fail "no error verdict");
      (match Obs.Json.member "slowest" objective with
      | Some (Obs.Json.List (ex :: _)) ->
          Alcotest.(check bool) "exemplar links into /debug/trace" true
            (match Obs.Json.member "trace" ex with
            | Some (Obs.Json.Str path) ->
                String.length path > 13
                && String.sub path 0 13 = "/debug/trace/"
            | _ -> false)
      | _ -> Alcotest.fail "no slowest exemplars");
      (* the same verdicts reach the scrape as turbosyn_slo_* gauges *)
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      (match
         series_value scrape
           "turbosyn_slo_latency_burn_rate{route=\"/map\",objective=\"p99\"}"
       with
      | None -> Alcotest.fail "no latency burn-rate gauge"
      | Some burn ->
          Alcotest.(check bool) "burn within budget" true
            (burn >= 0. && burn <= 1.));
      (match series_value scrape "turbosyn_slo_ok{route=\"/map\"}" with
      | None -> Alcotest.fail "no slo ok gauge"
      | Some ok -> Alcotest.(check (float 0.)) "objective holding" 1. ok);
      Alcotest.(check bool) "error budget gauge" true
        (series_value scrape "turbosyn_slo_error_budget{route=\"/map\"}"
        = Some 0.001);
      (* the route histogram the verdict reproduces from is scraped *)
      match
        series_value scrape "turbosyn_serve_route_seconds_map_count"
      with
      | None -> Alcotest.fail "no route histogram on the scrape"
      | Some n -> Alcotest.(check (float 0.)) "one observation" 1. n)

(* /debug/slo's latency verdict recomputed from a /metrics scrape after
   a hot/cold mix (doc/PROFILING.md §SLOs and burn rates).  [good] is
   the cumulative _bucket count at the largest rendered le at or below
   the published good_upper_seconds, [count] the _count line, and the
   burn rate (count - good) / count / (1 - q).  The 1 ms target is one
   the cold keys' computations miss, so the burn rate is nonzero. *)
let test_slo_burn_reproduced () =
  let slos =
    match Obs.Slo.parse_all [ "route=/map,p99=1ms" ] with
    | Ok slos -> slos
    | Error e -> Alcotest.failf "slo spec: %s" e
  in
  let cold = [| ("bbara", 4); ("bbara", 6); ("dk16", 5) |] in
  let body_of g =
    if g mod 2 = 0 then map_body ~circuit:"bbara" ~algo:"turbomap"
    else
      let c, k = cold.(g / 2 mod Array.length cold) in
      Printf.sprintf "{\"circuit\": %S, \"k\": %d, \"algo\": \"turbomap\"}"
        c k
  in
  with_server ~workers:2 ~slos (fun port ->
      let replies =
        List.concat_map Domain.join (load ~port ~domains:2 ~per:6 body_of)
      in
      List.iter
        (fun (id, status, _) ->
          Alcotest.(check int) (id ^ " status") 200 status)
        replies;
      Alcotest.(check bool) "mix hits the cache" true (hits replies > 0);
      (* /debug/slo first, then /metrics, with no /map in between: a GET
         observes only its own route histogram, so both answers see the
         same /map distribution *)
      let _, slo = http ~port ~meth:"GET" ~path:"/debug/slo" () in
      let _, scrape = http ~port ~meth:"GET" ~path:"/metrics" () in
      let objective =
        match Obs.Json.of_string slo with
        | Ok doc -> (
            match Obs.Json.member "objectives" doc with
            | Some (Obs.Json.List [ o ]) -> o
            | _ -> Alcotest.fail "expected exactly one objective")
        | Error e -> Alcotest.failf "/debug/slo: %s" e
      in
      let lat =
        match Obs.Json.member "latency" objective with
        | Some l -> l
        | None -> Alcotest.fail "no latency verdict"
      in
      let num k =
        match Obs.Json.member k lat with
        | Some (Obs.Json.Float v) -> v
        | Some (Obs.Json.Int v) -> float_of_int v
        | _ -> Alcotest.failf "latency verdict lacks %s" k
      in
      let q = num "quantile" and target = num "target_seconds" in
      let upper = num "good_upper_seconds" in
      let good = int_of_float (num "good") in
      let count = int_of_float (num "count") in
      let burn = num "burn_rate" in
      Alcotest.(check (float 0.)) "good_upper is the bucket boundary at or \
                                   above the target"
        Obs.Histogram.(bucket_upper (bucket_of target))
        upper;
      (* the histogram as the renderer spells it: turbosyn_ prefix,
         dots sanitized to underscores *)
      let metric =
        match Obs.Json.member "histogram" objective with
        | Some (Obs.Json.Str h) ->
            "turbosyn_" ^ String.map (fun c -> if c = '.' then '_' else c) h
        | _ -> Alcotest.fail "objective names no histogram"
      in
      let prefix = metric ^ "_bucket{le=\"" in
      let _, good_re =
        String.split_on_char '\n' scrape
        |> List.filter_map (fun line ->
               let n = String.length prefix in
               if not (String.starts_with ~prefix line) then None
               else
                 try
                   Scanf.sscanf
                     (String.sub line n (String.length line - n))
                     "%f\"} %f"
                     (fun le v -> Some (le, int_of_float v))
                 with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
        |> List.fold_left
             (fun (best, g) (le, v) ->
               if le <= upper *. (1. +. 1e-9) && le > best then (le, v)
               else (best, g))
             (neg_infinity, 0)
      in
      let count_re =
        match series_value scrape (metric ^ "_count") with
        | Some v -> int_of_float v
        | None -> Alcotest.failf "%s_count missing from the scrape" metric
      in
      Alcotest.(check int) "count reproduced" count count_re;
      Alcotest.(check int) "good reproduced" good good_re;
      Alcotest.(check bool) "cold keys miss the target" true (good < count);
      let burn_re =
        float_of_int (count_re - good_re) /. float_of_int count_re /. (1. -. q)
      in
      Alcotest.(check (float 1e-9)) "burn rate reproduced" burn burn_re;
      Alcotest.(check bool) "burn rate nonzero" true (burn > 0.))

(* Without objectives, /debug/slo still answers (empty, not 404) —
   dashboards can always scrape it. *)
let test_prof_slo_defaults () =
  with_server (fun port ->
      let status, _, body = http_full ~port ~meth:"GET" ~path:"/debug/slo" () in
      Alcotest.(check int) "slo status" 200 status;
      match Obs.Json.of_string body with
      | Ok doc ->
          Alcotest.(check bool) "no objectives" true
            (Obs.Json.member "objectives" doc = Some (Obs.Json.List []))
      | Error e -> Alcotest.failf "/debug/slo: %s" e)

(* K beyond the truth-table arity (or below 2) is the client's error:
   400 "k out of range" from the request parser, whatever the algorithm,
   never a 500 from inside the flow; the direct renderer agrees. *)
let test_k_range () =
  with_server (fun port ->
      List.iter
        (fun (k, algo) ->
          let what = Printf.sprintf "k=%d %s" k algo in
          let body =
            Printf.sprintf "{\"circuit\": \"bbara\", \"k\": %d, \"algo\": %S}"
              k algo
          in
          let status, resp = http ~port ~meth:"POST" ~path:"/map" ~body () in
          Alcotest.(check int) what 400 status;
          Alcotest.(check bool) (what ^ ": named") true
            (contains resp (Printf.sprintf "k out of range: %d" k)))
        [
          (7, "turbosyn"); (7, "turbomap"); (7, "flowsyn-s"); (16, "turbomap");
          (1, "turbomap"); (-3, "flowsyn-s");
        ];
      (* the query form is checked by the same parser *)
      let status, _ = http ~port ~meth:"GET" ~path:"/map?circuit=bbara&k=9" () in
      Alcotest.(check int) "query k=9" 400 status;
      let _, _, scrape = http_full ~port ~meth:"GET" ~path:"/metrics" () in
      Alcotest.(check (option (float 0.))) "no 5xx"
        None
        (series_value scrape
           "turbosyn_serve_requests{route=\"map\",status=\"500\"}"));
  Alcotest.(check bool) "map_response rejects k=7" true
    (Serve.Server.map_response ~circuit:"bbara" ~k:7 ~algo:`Turbomap
    = Error "k out of range: 7")

(* A body nested deeper than the JSON parser's 512-level cap is a 400,
   answered at once instead of after the parser recursed through all of
   it. *)
let test_deep_body () =
  with_server (fun port ->
      let t0 = Unix.gettimeofday () in
      let status, _ =
        http ~port ~meth:"POST" ~path:"/map"
          ~body:(String.make 4_000_000 '[') ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "deep body" 400 status;
      Alcotest.(check bool)
        (Printf.sprintf "answered in %.3f s" dt)
        true (dt < 2.))

(* The incremental header-terminator scan, fed the input in random
   chunks and resuming 3 bytes before each previous end exactly as the
   reader does, finds the terminator a single scan of the whole input
   finds.  Inputs are drawn over a small alphabet rich in CR and LF so
   terminators, near misses and chunk-straddling ones are common. *)
let qcheck_header_end =
  QCheck.Test.make ~name:"header_end: chunked scan = whole-string scan"
    ~count:500
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 64) (Gen.oneofl [ '\r'; '\n'; 'a' ]))
        (list_of_size Gen.(1 -- 16) (int_range 1 8)))
    (fun (s, cuts) ->
      let whole =
        let b = Buffer.create 16 in
        Buffer.add_string b s;
        Serve.Server.header_end b ~from:0
      in
      let b = Buffer.create 16 in
      let rec feed pos from cuts =
        match Serve.Server.header_end b ~from with
        | Some e -> Some e
        | None when pos >= String.length s -> None
        | None ->
            let c, rest =
              match cuts with c :: rest -> (c, rest) | [] -> (8, [])
            in
            let c = min c (String.length s - pos) in
            let from = Buffer.length b - 3 in
            Buffer.add_substring b s pos c;
            feed (pos + c) from rest
      in
      feed 0 0 cuts = whole)

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "concurrent mapping requests" `Quick
            test_concurrent_map;
          Alcotest.test_case "byte-identity across worker counts" `Quick
            test_workers_invariance;
          Alcotest.test_case "cache single-flight" `Quick
            test_cache_single_flight;
          Alcotest.test_case "cache bypass" `Quick test_cache_bypass;
          Alcotest.test_case "cached hot key >=3x uncached" `Quick
            test_hot_speedup;
          Alcotest.test_case "admission control sheds" `Quick test_shed;
          Alcotest.test_case "overload sheds under contention" `Quick
            test_overload_contention;
          Alcotest.test_case "prometheus scrape" `Quick test_scrape;
          Alcotest.test_case "scoped counters under concurrent scrapes"
            `Quick test_scoped_counters_concurrent;
          Alcotest.test_case "event stream per request" `Quick
            test_event_stream_per_request;
          Alcotest.test_case "request id extraction" `Quick
            test_request_id_extraction;
          Alcotest.test_case "request tracing" `Quick test_request_tracing;
          Alcotest.test_case "trace right after the response" `Quick
            test_trace_after_map;
          Alcotest.test_case "each server its own ring" `Quick
            test_servers_own_rings;
          Alcotest.test_case "ring slices bounded" `Quick
            test_ring_slices_bounded;
          Alcotest.test_case "content-length and response bytes" `Quick
            test_response_bytes;
          Alcotest.test_case "request body limits" `Quick test_body_limits;
          Alcotest.test_case "content-length validation" `Quick
            test_content_length;
          Alcotest.test_case "request read deadline" `Slow test_read_deadline;
          Alcotest.test_case "profiling and slo endpoints" `Quick
            test_profiling_and_slo;
          Alcotest.test_case "slo burn rate reproduced from a scrape" `Quick
            test_slo_burn_reproduced;
          Alcotest.test_case "prof and slo defaults" `Quick
            test_prof_slo_defaults;
          Alcotest.test_case "k out of range is a 400" `Quick test_k_range;
          Alcotest.test_case "deeply nested body is a 400" `Quick
            test_deep_body;
          QCheck_alcotest.to_alcotest qcheck_header_end;
        ] );
    ]
