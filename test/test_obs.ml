(* Tests for the observability layer: counter registry semantics, span
   nesting, disabled-mode no-ops, trace ring-buffer bounds, and the
   stats-report JSON schema (including a parse/print round trip). *)

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

(* ---------------------------------------------------------------- *)
(* Counters                                                         *)
(* ---------------------------------------------------------------- *)

let test_counter_registry () =
  with_obs (fun () ->
      let a = Obs.Counter.make "test.alpha" in
      let a' = Obs.Counter.make "test.alpha" in
      Alcotest.(check bool) "idempotent make" true (a == a');
      Obs.Counter.incr a;
      Obs.Counter.add a' 4;
      Alcotest.(check int) "shared state" 5 (Obs.Counter.value a);
      Alcotest.(check (option int)) "find" (Some 5) (Obs.Counter.find "test.alpha");
      Alcotest.(check (option int)) "find missing" None
        (Obs.Counter.find "test.never-registered");
      Alcotest.(check bool) "listed" true
        (List.mem_assoc "test.alpha" (Obs.Counter.all ()));
      Obs.Counter.reset_all ();
      Alcotest.(check int) "reset" 0 (Obs.Counter.value a))

let test_counter_record_max () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.peak" in
      Obs.Counter.record_max c 7;
      Obs.Counter.record_max c 3;
      Alcotest.(check int) "high water" 7 (Obs.Counter.value c);
      Obs.Counter.record_max c 11;
      Alcotest.(check int) "raised" 11 (Obs.Counter.value c))

let test_counter_negative_add () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.neg" in
      Alcotest.check_raises "negative add"
        (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
          Obs.Counter.add c (-1)))

(* ---------------------------------------------------------------- *)
(* Disabled mode                                                    *)
(* ---------------------------------------------------------------- *)

let test_disabled_no_ops () =
  Obs.set_enabled false;
  Obs.reset ();
  let c = Obs.Counter.make "test.disabled" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Counter.record_max c 42;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  let s = Obs.Span.make "test.disabled-span" in
  let r = Obs.Span.time s (fun () -> 17) in
  Alcotest.(check int) "span passes value through" 17 r;
  Alcotest.(check int) "span not entered" 0 (Obs.Span.count s);
  Obs.Trace.emit "test.event" [ ("x", Obs.Json.Int 1) ];
  Alcotest.(check int) "trace empty" 0 (Obs.Trace.length ())

(* ---------------------------------------------------------------- *)
(* Spans                                                            *)
(* ---------------------------------------------------------------- *)

let test_span_nesting () =
  with_obs (fun () ->
      let outer = Obs.Span.make "test.outer" in
      let inner = Obs.Span.make "test.inner" in
      Obs.Span.time outer (fun () ->
          Obs.Span.time inner (fun () -> Unix.sleepf 0.005);
          Obs.Span.time inner (fun () -> ()));
      Alcotest.(check int) "outer entries" 1 (Obs.Span.count outer);
      Alcotest.(check int) "inner entries" 2 (Obs.Span.count inner);
      Alcotest.(check bool) "outer covers inner" true
        (Obs.Span.seconds outer >= Obs.Span.seconds inner);
      Alcotest.(check bool) "inner nonzero" true (Obs.Span.seconds inner > 0.))

let test_span_recursion () =
  with_obs (fun () ->
      let s = Obs.Span.make "test.recursive" in
      let rec go n = Obs.Span.time s (fun () -> if n > 0 then go (n - 1)) in
      go 5;
      (* only the outermost activation completes an entry *)
      Alcotest.(check int) "one outermost entry" 1 (Obs.Span.count s))

let test_span_exception_safety () =
  with_obs (fun () ->
      let s = Obs.Span.make "test.raises" in
      (try Obs.Span.time s (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "entry recorded despite raise" 1 (Obs.Span.count s);
      (* the span is closed: a new timing still works *)
      Obs.Span.time s (fun () -> ());
      Alcotest.(check int) "reusable" 2 (Obs.Span.count s);
      (* spurious exit is ignored *)
      Obs.Span.exit s;
      Alcotest.(check int) "spurious exit ignored" 2 (Obs.Span.count s))

(* ---------------------------------------------------------------- *)
(* Trace ring buffer                                                *)
(* ---------------------------------------------------------------- *)

let test_trace_ring () =
  with_obs (fun () ->
      Obs.Trace.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 4096)
        (fun () ->
          for i = 0 to 5 do
            Obs.Trace.emit "tick" [ ("i", Obs.Json.Int i) ]
          done;
          Alcotest.(check int) "bounded" 4 (Obs.Trace.length ());
          Alcotest.(check int) "dropped" 2 (Obs.Trace.dropped ());
          let evs = Obs.Trace.events () in
          Alcotest.(check int) "oldest surviving seq" 2
            (List.hd evs).Obs.Trace.seq;
          Alcotest.(check int) "newest seq" 5
            (List.nth evs 3).Obs.Trace.seq;
          (* every line of the JSON-lines sink parses *)
          List.iter
            (fun e ->
              match
                Obs.Json.of_string
                  (Obs.Json.to_string (Obs.Trace.event_json e))
              with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "unparseable event: %s" m)
            evs))

(* ---------------------------------------------------------------- *)
(* Reset semantics                                                  *)
(* ---------------------------------------------------------------- *)

(* [Obs.reset] clears counters, spans, the trace ring and the timeline
   ring together — no consumer can observe a half-cleared state
   (doc/OBSERVABILITY.md, "Reset"). *)
let test_reset_clears_everything () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.reset-counter" in
      Obs.Counter.add c 9;
      let s = Obs.Span.make "test.reset-span" in
      Obs.Span.time s (fun () -> ());
      Obs.Trace.set_capacity 2;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 4096)
        (fun () ->
          for i = 0 to 4 do
            Obs.Trace.emit "tick" [ ("i", Obs.Json.Int i) ]
          done;
          Alcotest.(check bool) "trace dropped some" true
            (Obs.Trace.dropped () > 0);
          Alcotest.(check bool) "timeline recorded" true
            (Obs.Timeline.length () > 0);
          Obs.reset ();
          Alcotest.(check int) "counter zero" 0 (Obs.Counter.value c);
          Alcotest.(check int) "span entries zero" 0 (Obs.Span.count s);
          Alcotest.(check int) "trace empty" 0 (Obs.Trace.length ());
          Alcotest.(check int) "trace dropped zero" 0 (Obs.Trace.dropped ());
          Alcotest.(check int) "timeline empty" 0 (Obs.Timeline.length ());
          Alcotest.(check int) "timeline dropped zero" 0
            (Obs.Timeline.dropped ());
          (* sequence numbers restart from zero after a reset *)
          Obs.Trace.emit "fresh" [];
          Alcotest.(check int) "seq restarts" 0
            (List.hd (Obs.Trace.events ())).Obs.Trace.seq))

(* A span that is entered when reset runs loses its in-flight
   activation: the pending exit is ignored, and [entries] counts only
   activations completed entirely after the reset. *)
let test_reset_while_entered () =
  with_obs (fun () ->
      let s = Obs.Span.make "test.reset-inflight" in
      Obs.Span.time s (fun () -> ());
      Alcotest.(check int) "one entry before" 1 (Obs.Span.count s);
      Obs.Span.enter s;
      Obs.reset ();
      Obs.Span.exit s;
      (* the orphaned exit is dropped, not counted *)
      Alcotest.(check int) "orphaned exit ignored" 0 (Obs.Span.count s);
      Alcotest.(check int) "no timeline slice from the orphan" 0
        (Obs.Timeline.length ());
      (* the span works normally afterwards *)
      Obs.Span.time s (fun () -> ());
      Alcotest.(check int) "fresh entry counts" 1 (Obs.Span.count s);
      Alcotest.(check int) "fresh slice recorded" 1 (Obs.Timeline.length ()))

(* ---------------------------------------------------------------- *)
(* Per-domain shards (parallel phases, doc/CONCURRENCY.md)          *)
(* ---------------------------------------------------------------- *)

let test_shard_reset_guard () =
  with_obs (fun () ->
      let sh = Obs.Shard.create () in
      Alcotest.(check int) "one live shard" 1 (Obs.Shard.active ());
      (match Obs.reset () with
      | () -> Alcotest.fail "Obs.reset succeeded with a live shard"
      | exception Invalid_argument _ -> ());
      Obs.Shard.release sh;
      Obs.Shard.release sh;
      (* idempotent *)
      Alcotest.(check int) "released" 0 (Obs.Shard.active ());
      (* reset works again once no shard is live *)
      Obs.reset ())

let test_shard_merge () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.shard-adds" in
      let p = Obs.Counter.make "test.shard-peak" in
      let h = Obs.Histogram.make "test.shard-hist" in
      Obs.Counter.incr c;
      Obs.Counter.record_max p 10;
      let sh = Obs.Shard.create () in
      Obs.Shard.wrap sh (fun () ->
          Obs.Counter.add c 4;
          Obs.Counter.record_max p 7;
          (* below the global peak: max-merge must keep 10 *)
          Obs.Histogram.observe h 1.0;
          Obs.Histogram.observe h 2.0);
      (* nothing reaches the globals until the coordinator merges *)
      Alcotest.(check int) "adds buffered" 1 (Obs.Counter.value c);
      Alcotest.(check int) "hist buffered" 0 (Obs.Histogram.count h);
      Obs.Shard.merge sh;
      Alcotest.(check int) "adds merged by sum" 5 (Obs.Counter.value c);
      Alcotest.(check int) "peak merged by max" 10 (Obs.Counter.value p);
      Alcotest.(check int) "hist merged" 2 (Obs.Histogram.count h);
      (* a shard is reusable per level: wrap + merge again *)
      Obs.Shard.wrap sh (fun () -> Obs.Counter.record_max p 25);
      Obs.Shard.merge sh;
      Alcotest.(check int) "peak raised on remerge" 25 (Obs.Counter.value p);
      Obs.Shard.release sh)

let test_shard_span_and_timeline () =
  with_obs (fun () ->
      let s = Obs.Span.make "test.shard-span" in
      let sh = Obs.Shard.create () in
      Obs.Shard.wrap sh (fun () -> Obs.Span.time s (fun () -> ()));
      Alcotest.(check int) "span buffered" 0 (Obs.Span.count s);
      Alcotest.(check int) "timeline buffered" 0 (Obs.Timeline.length ());
      Obs.Shard.merge sh;
      Obs.Shard.release sh;
      Alcotest.(check int) "span merged" 1 (Obs.Span.count s);
      Alcotest.(check int) "timeline slice merged" 1 (Obs.Timeline.length ()))

(* ---------------------------------------------------------------- *)
(* JSON round trip and the stats schema                             *)
(* ---------------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Obs.Json.(
      Obj
        [
          ("null", Null);
          ("bools", List [ Bool true; Bool false ]);
          ("ints", List [ Int 0; Int (-42); Int max_int ]);
          ("floats", List [ Float 0.5; Float 1e-3; Float 1234.0 ]);
          ("string", Str "quote \" backslash \\ newline \n tab \t");
          ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
        ])
  in
  (match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round trip" true (Obs.Json.equal v v')
  | Error m -> Alcotest.failf "parse failed: %s" m);
  (match Obs.Json.of_string (Obs.Json.to_pretty_string v) with
  | Ok v' -> Alcotest.(check bool) "pretty round trip" true (Obs.Json.equal v v')
  | Error m -> Alcotest.failf "pretty parse failed: %s" m);
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" bad
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

(* Nesting is capped at 512 containers: a deeper document is an [Error],
   found without recursing through the rest of the input, so a body of
   millions of '[' is refused at once instead of costing time and stack
   in proportion to its length. *)
let test_json_depth_cap () =
  let nested d open_ close =
    String.concat "" (List.init d (fun _ -> open_))
    ^ "0"
    ^ String.concat "" (List.init d (fun _ -> close))
  in
  List.iter
    (fun (open_, close) ->
      (match Obs.Json.of_string (nested 512 open_ close) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "depth 512 %s refused: %s" open_ e);
      match Obs.Json.of_string (nested 513 open_ close) with
      | Ok _ -> Alcotest.failf "depth 513 %s accepted" open_
      | Error _ -> ())
    [ ("[", "]"); ("{\"a\":", "}") ];
  let t0 = Unix.gettimeofday () in
  (match Obs.Json.of_string (String.make 4_000_000 '[') with
  | Ok _ -> Alcotest.fail "4M '[' accepted"
  | Error _ -> ());
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "4M '[' refused in %.3f s" dt)
    true (dt < 0.5)

(* Generator for arbitrary JSON values.  Floats are drawn from a finite
   range (non-finite floats deliberately print as null and do not round
   trip); strings exercise escapes, control characters and non-ASCII
   bytes. *)
let json_gen =
  let open QCheck.Gen in
  let string_gen =
    string_size ~gen:(graft_corners (char_range '\000' '\255') [ '"'; '\\'; '\n'; '\t'; '\x1f'; 'u' ] ()) (0 -- 12)
  in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Obs.Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Obs.Json.Str s) string_gen;
        (* exact rationals travel as strings in the audit schema *)
        map2
          (fun n d -> Obs.Json.Str (Printf.sprintf "%d/%d" n (max 1 d)))
          small_signed_int small_nat;
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then leaf
          else
            frequency
              [
                (2, leaf);
                ( 1,
                  map
                    (fun l -> Obs.Json.List l)
                    (list_size (0 -- 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun l -> Obs.Json.Obj l)
                    (list_size (0 -- 4)
                       (pair string_gen (self (n / 2)))) );
              ])
        (min n 6))

let json_arbitrary =
  QCheck.make ~print:(fun v -> Obs.Json.to_string v) json_gen

let prop_round_trip to_s =
  QCheck.Test.make ~count:500 ~name:"print/parse round trip" json_arbitrary
    (fun v ->
      match Obs.Json.of_string (to_s v) with
      | Ok v' -> Obs.Json.equal v v'
      | Error _ -> false)

let test_json_properties () =
  let run t =
    match QCheck.Test.check_exn t with
    | () -> ()
    | exception QCheck.Test.Test_fail (name, cex) ->
        Alcotest.failf "%s failed on %s" name (String.concat "; " cex)
  in
  run (prop_round_trip Obs.Json.to_string);
  run (prop_round_trip Obs.Json.to_pretty_string)

let test_stats_schema () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.schema-counter" in
      Obs.Counter.add c 3;
      Obs.Span.time (Obs.Span.make "test.schema-span") (fun () -> ());
      let extra = [ ("run", Obs.Json.Obj [ ("k", Obs.Json.Int 5) ]) ] in
      let report = Obs.Report.stats_json ~extra () in
      (* the document round-trips through the printer and parser *)
      (match Obs.Json.of_string (Obs.Json.to_string report) with
      | Ok v ->
          Alcotest.(check bool) "schema round trip" true
            (Obs.Json.equal report v)
      | Error m -> Alcotest.failf "report does not parse: %s" m);
      (* versioned header *)
      Alcotest.(check bool) "schema tag" true
        (Obs.Json.member "schema" report
        = Some (Obs.Json.Str Obs.Report.schema_version));
      Alcotest.(check bool) "enabled flag" true
        (Obs.Json.member "enabled" report = Some (Obs.Json.Bool true));
      (* extra members are spliced in *)
      Alcotest.(check bool) "run member" true
        (Obs.Json.member "run" report <> None);
      (* counters and spans land under their sections *)
      (match Obs.Json.member "counters" report with
      | Some counters ->
          Alcotest.(check bool) "counter value" true
            (Obs.Json.member "test.schema-counter" counters
            = Some (Obs.Json.Int 3))
      | None -> Alcotest.fail "no counters object");
      match Obs.Json.member "spans" report with
      | Some spans -> (
          match Obs.Json.member "test.schema-span" spans with
          | Some span ->
              Alcotest.(check bool) "span entries" true
                (Obs.Json.member "entries" span = Some (Obs.Json.Int 1))
          | None -> Alcotest.fail "span missing")
      | None -> Alcotest.fail "no spans object")

(* ---------------------------------------------------------------- *)
(* Histogram properties                                             *)
(* ---------------------------------------------------------------- *)

let run_qcheck t =
  match QCheck.Test.check_exn t with
  | () -> ()
  | exception QCheck.Test.Test_fail (name, cex) ->
      Alcotest.failf "%s failed on %s" name (String.concat "; " cex)

(* Mostly positive magnitudes spanning many buckets, with zero,
   negatives (bucket 0) and huge values (clamped top bucket) mixed
   in. *)
let value_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float_range 1e-6 1e6);
        (1, return 0.);
        (1, float_range (-100.) 0.);
        (1, float_range 1e6 1e18);
      ])

let print_values vs = String.concat ", " (List.map string_of_float vs)

let values_arbitrary =
  QCheck.make ~print:print_values QCheck.Gen.(list_size (0 -- 64) value_gen)

let nonempty_values_arbitrary =
  QCheck.make ~print:print_values QCheck.Gen.(list_size (1 -- 64) value_gen)

(* Zero every histogram, replay [vs] into one, and return its snapshot
   (snapshots are immutable, so later resets do not disturb it). *)
let snapshot_of_values vs =
  Obs.Histogram.reset_all ();
  let h = Obs.Histogram.make "test.hist-prop" in
  List.iter (Obs.Histogram.observe h) vs;
  Obs.Histogram.snapshot h

let test_histogram_buckets () =
  (* fixed global layout, independent of the observability switch *)
  for i = 0 to Obs.Histogram.nbuckets - 2 do
    Alcotest.(check bool) "upper bounds strictly increase" true
      (Obs.Histogram.bucket_upper i < Obs.Histogram.bucket_upper (i + 1))
  done;
  Alcotest.(check bool) "last bucket unbounded" true
    (Obs.Histogram.bucket_upper (Obs.Histogram.nbuckets - 1) = infinity);
  let pair_arb =
    QCheck.make
      ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
      QCheck.Gen.(pair value_gen value_gen)
  in
  run_qcheck
    (QCheck.Test.make ~count:1000 ~name:"bucket_of weakly monotone" pair_arb
       (fun (a, b) ->
         let lo = Float.min a b and hi = Float.max a b in
         Obs.Histogram.bucket_of lo <= Obs.Histogram.bucket_of hi));
  run_qcheck
    (QCheck.Test.make ~count:1000 ~name:"value under its bucket bound"
       (QCheck.make ~print:string_of_float value_gen)
       (fun v -> v <= Obs.Histogram.bucket_upper (Obs.Histogram.bucket_of v)))

let test_histogram_merge () =
  with_obs (fun () ->
      let pair_arb =
        QCheck.make
          ~print:(fun (xs, ys) ->
            Printf.sprintf "[%s] / [%s]" (print_values xs) (print_values ys))
          QCheck.Gen.(
            pair (list_size (0 -- 64) value_gen) (list_size (0 -- 64) value_gen))
      in
      run_qcheck
        (QCheck.Test.make ~count:200 ~name:"merge commutes and preserves mass"
           pair_arb (fun (xs, ys) ->
             let a = snapshot_of_values xs in
             let b = snapshot_of_values ys in
             let m = Obs.Histogram.merge a b in
             m = Obs.Histogram.merge b a
             && m.Obs.Histogram.s_count = List.length xs + List.length ys
             && List.fold_left
                  (fun acc (_, c) -> acc + c)
                  0 m.Obs.Histogram.s_buckets
                = m.Obs.Histogram.s_count)))

let test_histogram_quantiles () =
  with_obs (fun () ->
      run_qcheck
        (QCheck.Test.make ~count:200 ~name:"quantiles ordered and bounded"
           nonempty_values_arbitrary (fun vs ->
             let s = snapshot_of_values vs in
             let q p = Obs.Histogram.snapshot_quantile s p in
             let p50 = q 0.5 and p90 = q 0.9 and p99 = q 0.99 in
             s.Obs.Histogram.s_min <= p50
             && p50 <= p90 && p90 <= p99
             && p99 <= s.Obs.Histogram.s_max)))

let test_histogram_json () =
  with_obs (fun () ->
      run_qcheck
        (QCheck.Test.make ~count:200 ~name:"snapshot JSON round trip"
           values_arbitrary (fun vs ->
             let s = snapshot_of_values vs in
             let j = Obs.Histogram.snapshot_to_json s in
             let direct =
               match Obs.Histogram.snapshot_of_json j with
               | Ok s' -> s' = s
               | Error _ -> false
             in
             let through_text =
               match Obs.Json.of_string (Obs.Json.to_string j) with
               | Ok j' -> (
                   match Obs.Histogram.snapshot_of_json j' with
                   | Ok s' -> s' = s
                   | Error _ -> false)
               | Error _ -> false
             in
             direct && through_text)))

(* ---------------------------------------------------------------- *)
(* Scopes: request-scoped capture, merge routing, close semantics    *)
(* ---------------------------------------------------------------- *)

let test_scope_capture () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.scope-counter" in
      let s = Obs.Span.make "test.scope-span" in
      let scope = Obs.Scope.create ~id:"req-1" () in
      Alcotest.(check string) "explicit id" "req-1" (Obs.Scope.id scope);
      Obs.Scope.run scope (fun () ->
          Obs.Counter.add c 3;
          Obs.Span.time s (fun () -> ());
          (* buffered in the scope, not yet global *)
          Alcotest.(check int) "global untouched inside" 0
            (Obs.Counter.value c);
          Alcotest.(check (option string))
            "ambient request id" (Some "req-1")
            (Obs.Log.current_request_id ()));
      Alcotest.(check (option string)) "request id restored" None
        (Obs.Log.current_request_id ());
      (* a live scope holds a shard: reset refuses *)
      Alcotest.(check bool) "reset refused while open" true
        (match Obs.reset () with
        | exception Invalid_argument _ -> true
        | () -> false);
      let summary = Obs.Scope.close scope in
      Alcotest.(check int) "global after close" 3 (Obs.Counter.value c);
      Alcotest.(check int) "span merged" 1 (Obs.Span.count s);
      Alcotest.(check (option int)) "summary counter" (Some 3)
        (List.assoc_opt "test.scope-counter" summary.Obs.Scope.sc_counters);
      Alcotest.(check bool) "summary span" true
        (Obs.Scope.span_seconds summary "test.scope-span" <> None);
      Alcotest.(check bool) "summary slice" true
        (List.exists
           (fun (sl : Obs.Timeline.slice) -> sl.name = "test.scope-span")
           summary.Obs.Scope.sc_slices);
      (* the summary renders as JSON *)
      (match
         Obs.Json.of_string
           (Obs.Json.to_string (Obs.Scope.summary_json summary))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "summary does not round trip: %s" e);
      Alcotest.(check bool) "double close refused" true
        (match Obs.Scope.close scope with
        | exception Invalid_argument _ -> true
        | _ -> false);
      Alcotest.(check bool) "run after close refused" true
        (match Obs.Scope.run scope (fun () -> ()) with
        | exception Invalid_argument _ -> true
        | () -> false))

(* the same instrumented work, bare vs inside a scope, leaves the
   global registries identical — the byte-identity the stats/audit
   gates rely on *)
let test_scope_transparency () =
  with_obs (fun () ->
      let work () =
        let c = Obs.Counter.make "test.scope-id-counter" in
        let p = Obs.Counter.make "test.scope-id-peak" in
        let h = Obs.Histogram.make "test.scope-id-hist" in
        let s = Obs.Span.make "test.scope-id-span" in
        Obs.Counter.add c 5;
        Obs.Counter.record_max p 9;
        Obs.Counter.record_max p 4;
        List.iter (Obs.Histogram.observe h) [ 0.001; 0.5; 70.; 3.2 ];
        Obs.Span.time s (fun () -> Obs.Counter.incr c)
      in
      work ();
      let bare_counters = Obs.Counter.all () in
      let bare_hists = Obs.Histogram.all () in
      Obs.reset ();
      let (), _summary = Obs.Scope.wrap (fun _ -> work ()) in
      Alcotest.(check bool) "counters identical" true
        (Obs.Counter.all () = bare_counters);
      Alcotest.(check bool) "histograms identical" true
        (Obs.Histogram.all () = bare_hists))

(* nesting: an inner scope closed inside an outer [run] folds into the
   outer scope, not the globals; lane shards inside a scope do too *)
let test_scope_nesting () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.scope-nest" in
      let outer = Obs.Scope.create () in
      Obs.Scope.run outer (fun () ->
          let (), inner_summary =
            Obs.Scope.wrap (fun _ -> Obs.Counter.add c 2)
          in
          Alcotest.(check (option int)) "inner summary sees its adds"
            (Some 2)
            (List.assoc_opt "test.scope-nest"
               inner_summary.Obs.Scope.sc_counters);
          Alcotest.(check int) "inner close lands in outer, not global" 0
            (Obs.Counter.value c);
          (* a lane shard (the parallel-phase protocol) inside the scope:
             merge resolves to the enclosing scope as well *)
          let lane = Obs.Shard.create () in
          Obs.Shard.wrap lane (fun () -> Obs.Counter.add c 7);
          Obs.Shard.merge lane;
          Obs.Shard.release lane;
          Alcotest.(check int) "lane merge lands in outer" 0
            (Obs.Counter.value c));
      let summary = Obs.Scope.close outer in
      Alcotest.(check (option int)) "outer summary accumulated" (Some 9)
        (List.assoc_opt "test.scope-nest" summary.Obs.Scope.sc_counters);
      Alcotest.(check int) "globals after outer close" 9
        (Obs.Counter.value c))

let test_scope_fresh_ids () =
  let a = Obs.Scope.fresh_id () in
  let b = Obs.Scope.fresh_id () in
  Alcotest.(check bool) "distinct" true (a <> b);
  List.iter
    (fun id ->
      Alcotest.(check int) "16 chars" 16 (String.length id);
      Alcotest.(check bool) "lower-case hex" true
        (String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           id))
    [ a; b ]

(* Concurrent scopes on worker domains, closed by the coordinator in an
   arbitrary order: the integer merges (sums, peaks, histogram counts)
   are associative and commutative, so the global totals depend only on
   the multiset of operations — never on the interleaving or the close
   order. *)
let test_scope_concurrent_merge () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.scope-conc" in
      let p = Obs.Counter.make "test.scope-conc-peak" in
      let h = Obs.Histogram.make "test.scope-conc-hist" in
      let gen =
        QCheck.Gen.(
          pair
            (list_size (1 -- 4) (list_size (0 -- 16) (0 -- 100)))
            bool)
      in
      let print (per_scope, rev) =
        Printf.sprintf "%s close_reversed=%b"
          (String.concat " | "
             (List.map
                (fun l -> String.concat "," (List.map string_of_int l))
                per_scope))
          rev
      in
      run_qcheck
        (QCheck.Test.make ~count:30
           ~name:"concurrent scopes merge to the op multiset"
           (QCheck.make ~print gen)
           (fun (per_scope, reverse_close) ->
             Obs.Counter.reset_all ();
             Obs.Histogram.reset_all ();
             let scopes =
               List.map
                 (fun adds ->
                   let scope = Obs.Scope.create () in
                   let d =
                     Domain.spawn (fun () ->
                         Obs.Scope.run scope (fun () ->
                             List.iter
                               (fun v ->
                                 Obs.Counter.add c v;
                                 Obs.Counter.record_max p v;
                                 Obs.Histogram.observe h (float_of_int v))
                               adds))
                   in
                   Domain.join d;
                   scope)
                 per_scope
             in
             (* close order must not matter *)
             let scopes =
               if reverse_close then List.rev scopes else scopes
             in
             List.iter (fun s -> ignore (Obs.Scope.close s)) scopes;
             let want_sum =
               List.fold_left
                 (fun acc l -> List.fold_left ( + ) acc l)
                 0 per_scope
             in
             let want_peak =
               List.fold_left
                 (fun acc l -> List.fold_left max acc l)
                 0 per_scope
             in
             let want_count =
               List.fold_left (fun acc l -> acc + List.length l) 0 per_scope
             in
             Obs.Counter.value c = want_sum
             && Obs.Counter.value p = want_peak
             && (Obs.Histogram.snapshot h).Obs.Histogram.s_count
                = want_count)))

(* ---------------------------------------------------------------- *)
(* Flamegraph folding                                                *)
(* ---------------------------------------------------------------- *)

let folded_well_formed text =
  String.split_on_char '\n' text
  |> List.for_all (fun line ->
         line = ""
         ||
         match String.rindex_opt line ' ' with
         | None -> false
         | Some i -> (
             let stack = String.sub line 0 i in
             let weight =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             stack <> ""
             && List.for_all
                  (fun fr -> fr <> "" && not (String.contains fr ' '))
                  (String.split_on_char ';' stack)
             &&
             match int_of_string_opt weight with
             | Some w -> w > 0
             | None -> false))

let slice name start stop = { Obs.Timeline.name; start; stop }

let test_flame_fold () =
  (* A contains B contains C, and sibling D; self times are durations
     minus direct children *)
  let folded =
    Obs.Flame.fold_slices
      [
        slice "A" 0. 10.;
        slice "B" 2. 6.;
        slice "C" 3. 4.;
        slice "D" 7. 9.;
      ]
  in
  let get k = List.assoc_opt k folded in
  Alcotest.(check (option (float 1e-9))) "A self" (Some 4.) (get "A");
  Alcotest.(check (option (float 1e-9))) "A;B self" (Some 3.) (get "A;B");
  Alcotest.(check (option (float 1e-9))) "A;B;C self" (Some 1.) (get "A;B;C");
  Alcotest.(check (option (float 1e-9))) "A;D self" (Some 2.) (get "A;D");
  Alcotest.(check int) "no other stacks" 4 (List.length folded);
  let text = Obs.Flame.to_string folded in
  Alcotest.(check bool) "well-formed" true (folded_well_formed text);
  Alcotest.(check string) "exact lines"
    "A 4000000\nA;B 3000000\nA;B;C 1000000\nA;D 2000000\n" text;
  (* overlapping (parallel-lane) slices fold as siblings *)
  let overlap =
    Obs.Flame.fold_slices [ slice "X" 0. 4.; slice "Y" 2. 6. ]
  in
  Alcotest.(check (option (float 1e-9))) "X sibling" (Some 4.)
    (List.assoc_opt "X" overlap);
  Alcotest.(check (option (float 1e-9))) "Y sibling" (Some 4.)
    (List.assoc_opt "Y" overlap);
  (* frame names are sanitized: separators cannot corrupt the format *)
  let dirty = Obs.Flame.fold_slices [ slice "a;b c\nd" 0. 1. ] in
  Alcotest.(check bool) "frame sanitized" true
    (List.mem_assoc "a_b_c_d" dirty);
  (* repeated identical stacks accumulate *)
  let acc =
    Obs.Flame.fold_slices [ slice "R" 0. 1.; slice "R" 5. 7. ]
  in
  Alcotest.(check (option (float 1e-9))) "accumulated" (Some 3.)
    (List.assoc_opt "R" acc)

let test_flame_timeline_round_trip () =
  with_obs (fun () ->
      let outer = Obs.Span.make "test.flame-outer" in
      let inner = Obs.Span.make "test.flame-inner" in
      Obs.Span.time outer (fun () ->
          Obs.Span.time inner (fun () -> Unix.sleepf 0.002));
      let slices = Obs.Timeline.slices () in
      Alcotest.(check int) "two slices" 2 (List.length slices);
      let direct = Obs.Flame.of_slices slices in
      (* through the Chrome-trace document, as `flame --from-timeline`
         consumes it *)
      let doc = Obs.Report.timeline_json () in
      match Obs.Flame.slices_of_timeline_json doc with
      | Error e -> Alcotest.failf "trace does not parse back: %s" e
      | Ok recovered ->
          Alcotest.(check int) "slice count preserved" 2
            (List.length recovered);
          let through = Obs.Flame.of_slices recovered in
          Alcotest.(check bool) "both well-formed" true
            (folded_well_formed direct && folded_well_formed through);
          Alcotest.(check bool) "nesting preserved" true
            (let mem sub s =
               let n = String.length sub in
               let rec go i =
                 i + n <= String.length s
                 && (String.sub s i n = sub || go (i + 1))
               in
               go 0
             in
             mem "test.flame-outer;test.flame-inner" through))

(* ring overflow: with parents or children evicted, the fold and the
   Chrome-trace document both stay well-formed *)
let test_timeline_overflow_flame () =
  with_obs (fun () ->
      Obs.Timeline.set_capacity 8;
      Fun.protect
        ~finally:(fun () -> Obs.Timeline.set_capacity 65536)
        (fun () ->
          (* innermost-first recording (real exit order): eviction drops
             the innermost frames, keeping parents *)
          for i = 31 downto 0 do
            Obs.Timeline.record
              (Printf.sprintf "deep%d" i)
              ~start:(float_of_int i)
              ~stop:(float_of_int (64 - i))
          done;
          Alcotest.(check int) "ring bounded" 8 (Obs.Timeline.length ());
          Alcotest.(check int) "drops counted" 24 (Obs.Timeline.dropped ());
          let text = Obs.Flame.of_slices (Obs.Timeline.slices ()) in
          Alcotest.(check bool) "fold well-formed after child eviction"
            true (folded_well_formed text);
          (* outermost-first recording: eviction drops the PARENTS; the
             orphaned children must still fold cleanly *)
          Obs.Timeline.clear ();
          for i = 0 to 31 do
            Obs.Timeline.record
              (Printf.sprintf "deep%d" i)
              ~start:(float_of_int i)
              ~stop:(float_of_int (64 - i))
          done;
          let slices = Obs.Timeline.slices () in
          let text = Obs.Flame.of_slices slices in
          Alcotest.(check bool) "fold well-formed after parent eviction"
            true (folded_well_formed text);
          Alcotest.(check bool) "deepest surviving frame is a root" true
            (String.length text >= 6 && String.sub text 0 6 = "deep24");
          (* the /debug/trace document over the same slices parses *)
          match
            Obs.Json.of_string
              (Obs.Json.to_string (Obs.Report.timeline_json ~slices ()))
          with
          | Ok doc -> (
              match Obs.Flame.slices_of_timeline_json doc with
              | Ok r ->
                  Alcotest.(check int) "document carries the ring" 8
                    (List.length r)
              | Error e -> Alcotest.failf "trace parse: %s" e)
          | Error e -> Alcotest.failf "trace document: %s" e))

(* ---------------------------------------------------------------- *)
(* Sampling profiler (Obs.Prof, doc/PROFILING.md)                    *)
(* ---------------------------------------------------------------- *)

(* Attach/detach lifecycle, and the satellite guarantee that
   [Obs.reset] refuses while the sampler's tick thread could be
   reading live span state. *)
let test_prof_lifecycle () =
  with_obs (fun () ->
      Alcotest.(check bool) "detached initially" false (Obs.Prof.attached ());
      Alcotest.(check bool) "non-positive interval refused" true
        (match Obs.Prof.attach ~interval:0. () with
        | exception Invalid_argument _ -> true
        | () -> false);
      Obs.Prof.attach ~interval:0.002 ();
      Fun.protect
        ~finally:(fun () -> Obs.Prof.detach ())
        (fun () ->
          Alcotest.(check bool) "attached" true (Obs.Prof.attached ());
          Alcotest.(check (float 1e-9)) "interval" 0.002 (Obs.Prof.interval ());
          Alcotest.(check bool) "double attach refused" true
            (match Obs.Prof.attach () with
            | exception Invalid_argument _ -> true
            | () -> false);
          (* the reset guard: the tick thread reads live span stacks,
             so clearing the registries under it is refused *)
          Alcotest.(check bool) "Obs.reset refused while attached" true
            (match Obs.reset () with
            | exception Invalid_argument _ -> true
            | () -> false));
      Alcotest.(check bool) "detached" false (Obs.Prof.attached ());
      Obs.Prof.detach ();
      (* idempotent *)
      Obs.reset ();
      (* allowed again *)
      Obs.Prof.reset ();
      Alcotest.(check int) "reset clears samples" 0 (Obs.Prof.samples ()))

(* Real sampled stacks: nested spans on a route, long enough (sleeps
   release the runtime lock, so the tick systhread observes them) that
   samples land deterministically, and the folded output reflects the
   nesting. *)
let test_prof_sampling () =
  with_obs (fun () ->
      let outer = Obs.Span.make "test.prof-outer" in
      let inner = Obs.Span.make "test.prof-inner" in
      Obs.Prof.reset ();
      Obs.Prof.attach ~interval:0.002 ();
      Fun.protect
        ~finally:(fun () -> Obs.Prof.detach ())
        (fun () ->
          Obs.Prof.with_route "map" (fun () ->
              Obs.Span.time outer (fun () ->
                  Obs.Span.time inner (fun () -> Unix.sleepf 0.06))));
      Alcotest.(check bool) "samples landed" true (Obs.Prof.samples () > 0);
      Alcotest.(check bool) "nothing dropped" true (Obs.Prof.dropped () = 0);
      Alcotest.(check bool) "overhead accounted" true
        (Obs.Prof.overhead_seconds () >= 0.);
      Alcotest.(check (list string)) "route recorded" [ "map" ]
        (Obs.Prof.routes ());
      let folded = Obs.Prof.folded () in
      Alcotest.(check bool) "folded non-empty" true (folded <> []);
      List.iter
        (fun (stack, w) ->
          Alcotest.(check bool) ("positive weight for " ^ stack) true (w > 0.);
          List.iter
            (fun fr ->
              Alcotest.(check bool) "frame sane" true
                (fr <> "" && not (String.contains fr ' ')))
            (String.split_on_char ';' stack))
        folded;
      Alcotest.(check bool) "nested stack sampled" true
        (List.mem_assoc "test.prof-outer;test.prof-inner" folded);
      (* the sleep runs under the inner span: it dominates self time *)
      (match Obs.Prof.top_self () with
      | (frame, _) :: _ ->
          Alcotest.(check string) "heaviest self frame" "test.prof-inner"
            frame
      | [] -> Alcotest.fail "top_self empty");
      Alcotest.(check bool) "folded text well-formed" true
        (folded_well_formed (Obs.Prof.folded_text ()));
      (* route filtering *)
      Alcotest.(check bool) "unknown route filters to nothing" true
        (Obs.Prof.folded ~route:"nope" () = []);
      Alcotest.(check bool) "route filter keeps the samples" true
        (Obs.Prof.folded ~route:"map" () <> []);
      (* raw samples render as a parseable Chrome-trace document *)
      let slices = Obs.Prof.slices () in
      Alcotest.(check bool) "slices non-empty" true (slices <> []);
      List.iter
        (fun (sl : Obs.Timeline.slice) ->
          Alcotest.(check bool) "slice ordered" true (sl.stop > sl.start))
        slices;
      (match
         Obs.Json.of_string
           (Obs.Json.to_string (Obs.Report.timeline_json ~slices ()))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "prof chrome trace: %s" e);
      (* reset forgets the samples *)
      Obs.Prof.reset ();
      Alcotest.(check int) "samples cleared" 0 (Obs.Prof.samples ());
      Alcotest.(check bool) "folded cleared" true (Obs.Prof.folded () = []))

(* qcheck: whatever nesting program runs under the sampler, the folded
   output stays well-formed — frames non-empty and separator-free,
   weights strictly positive (sampling is timing-dependent; the
   property must hold for ANY subset of stacks the ticks observed). *)
let test_prof_folded_qcheck () =
  with_obs (fun () ->
      let frame_names = [| "prof.qa"; "prof.qb"; "prof.qc"; "prof.qd" |] in
      let gen =
        QCheck.Gen.(
          list_size (1 -- 3)
            (list_size (1 -- 3) (0 -- (Array.length frame_names - 1))))
      in
      let print paths =
        String.concat " | "
          (List.map
             (fun p ->
               String.concat ";"
                 (List.map (fun i -> frame_names.(i)) p))
             paths)
      in
      run_qcheck
        (QCheck.Test.make ~count:8 ~name:"sampled folded stacks well-formed"
           (QCheck.make ~print gen)
           (fun paths ->
             Obs.Prof.reset ();
             Obs.Prof.attach ~interval:0.001 ();
             Fun.protect
               ~finally:(fun () -> Obs.Prof.detach ())
               (fun () ->
                 List.iter
                   (fun path ->
                     let rec nest = function
                       | [] -> Unix.sleepf 0.004
                       | i :: rest ->
                           Obs.Span.time
                             (Obs.Span.make frame_names.(i))
                             (fun () -> nest rest)
                     in
                     nest path)
                   paths);
             let folded = Obs.Prof.folded () in
             List.for_all
               (fun (stack, w) ->
                 w > 0. && stack <> ""
                 && List.for_all
                      (fun fr ->
                        fr <> ""
                        && not (String.contains fr ' ')
                        && not (String.contains fr '\n'))
                      (String.split_on_char ';' stack))
               folded
             && folded_well_formed (Obs.Prof.folded_text ()))));
  Obs.Prof.reset ()

(* ---------------------------------------------------------------- *)
(* Scope resource accounting                                         *)
(* ---------------------------------------------------------------- *)

let test_scope_resources () =
  with_obs (fun () ->
      Alcotest.(check (float 0.)) "zero_resources cpu" 0.
        Obs.Scope.zero_resources.Obs.Scope.r_cpu_seconds;
      let scope = Obs.Scope.create () in
      Obs.Scope.run scope (fun () ->
          ignore (Sys.opaque_identity (List.init 50_000 Fun.id)));
      let s = Obs.Scope.close ~queue_wait:0.25 scope in
      let r = s.Obs.Scope.sc_resources in
      Alcotest.(check bool) "allocation observed" true
        (r.Obs.Scope.r_minor_words > 0.);
      List.iter
        (fun (what, v) ->
          Alcotest.(check bool) (what ^ " non-negative") true (v >= 0.))
        [
          ("cpu", r.Obs.Scope.r_cpu_seconds);
          ("minor", r.Obs.Scope.r_minor_words);
          ("promoted", r.Obs.Scope.r_promoted_words);
          ("major", r.Obs.Scope.r_major_words);
          ("queue", r.Obs.Scope.r_queue_wait);
        ];
      Alcotest.(check (float 1e-9)) "queue wait recorded" 0.25
        r.Obs.Scope.r_queue_wait;
      (* negative queue wait clamps to zero *)
      let scope2 = Obs.Scope.create () in
      Obs.Scope.run scope2 (fun () -> ());
      let s2 = Obs.Scope.close ~queue_wait:(-3.) scope2 in
      Alcotest.(check (float 0.)) "negative queue wait clamped" 0.
        s2.Obs.Scope.sc_resources.Obs.Scope.r_queue_wait;
      (* the summary document carries the resources object *)
      match Obs.Json.member "resources" (Obs.Scope.summary_json s) with
      | Some res ->
          List.iter
            (fun field ->
              Alcotest.(check bool) ("resources." ^ field) true
                (match Obs.Json.member field res with
                | Some (Obs.Json.Float _) | Some (Obs.Json.Int _) -> true
                | _ -> false))
            [
              "cpu_seconds"; "minor_words"; "promoted_words"; "major_words";
              "queue_wait_seconds";
            ]
      | None -> Alcotest.fail "summary_json has no resources member")

(* qcheck: resource deltas are non-negative for every child, and — the
   GC words being monotone per-domain counters — a parent scope's delta
   bounds the sum of its sequential children's. *)
let test_scope_resources_additive () =
  with_obs (fun () ->
      let gen = QCheck.Gen.(list_size (1 -- 4) (0 -- 5000)) in
      let print l = String.concat "," (List.map string_of_int l) in
      run_qcheck
        (QCheck.Test.make ~count:20
           ~name:"scope resources non-negative and parent-bounded"
           (QCheck.make ~print gen)
           (fun sizes ->
             let parent = Obs.Scope.create () in
             let children =
               Obs.Scope.run parent (fun () ->
                   List.map
                     (fun n ->
                       let (), summary =
                         Obs.Scope.wrap (fun _ ->
                             ignore
                               (Sys.opaque_identity (List.init n Fun.id)))
                       in
                       summary.Obs.Scope.sc_resources)
                     sizes)
             in
             let p = (Obs.Scope.close parent).Obs.Scope.sc_resources in
             let nonneg (r : Obs.Scope.resources) =
               r.Obs.Scope.r_cpu_seconds >= 0.
               && r.Obs.Scope.r_minor_words >= 0.
               && r.Obs.Scope.r_promoted_words >= 0.
               && r.Obs.Scope.r_major_words >= 0.
               && r.Obs.Scope.r_queue_wait >= 0.
             in
             let sum f = List.fold_left (fun a r -> a +. f r) 0. children in
             List.for_all nonneg children && nonneg p
             && p.Obs.Scope.r_minor_words +. 1e-6
                >= sum (fun r -> r.Obs.Scope.r_minor_words)
             && p.Obs.Scope.r_promoted_words +. 1e-6
                >= sum (fun r -> r.Obs.Scope.r_promoted_words)
             && p.Obs.Scope.r_major_words +. 1e-6
                >= sum (fun r -> r.Obs.Scope.r_major_words)
             && p.Obs.Scope.r_cpu_seconds +. 1e-6
                >= sum (fun r -> r.Obs.Scope.r_cpu_seconds))))

(* ---------------------------------------------------------------- *)
(* SLOs: spec parsing, burn-rate evaluation, scrape families         *)
(* ---------------------------------------------------------------- *)

let test_slo_parse () =
  (match Obs.Slo.parse "route=/map,p99=250ms,err=0.1%" with
  | Error e -> Alcotest.failf "canonical spec rejected: %s" e
  | Ok o ->
      Alcotest.(check string) "route" "/map" o.Obs.Slo.o_route;
      (match o.Obs.Slo.o_latency with
      | Some (label, q, t) ->
          Alcotest.(check string) "label" "p99" label;
          Alcotest.(check (float 1e-9)) "quantile" 0.99 q;
          Alcotest.(check (float 1e-9)) "target" 0.25 t
      | None -> Alcotest.fail "no latency objective");
      match o.Obs.Slo.o_err with
      | Some b -> Alcotest.(check (float 1e-12)) "budget" 0.001 b
      | None -> Alcotest.fail "no error objective");
  (* p-digit quantiles scale by digit count; seconds spellings work *)
  (match Obs.Slo.parse "route=/map,p999=1.5s" with
  | Ok { Obs.Slo.o_latency = Some (_, q, t); _ } ->
      Alcotest.(check (float 1e-9)) "p999" 0.999 q;
      Alcotest.(check (float 1e-9)) "seconds" 1.5 t
  | _ -> Alcotest.fail "p999 spec rejected");
  (match Obs.Slo.parse "route=/map,p50=10ms" with
  | Ok { Obs.Slo.o_latency = Some (_, q, _); _ } ->
      Alcotest.(check (float 1e-9)) "p50" 0.5 q
  | _ -> Alcotest.fail "p50 spec rejected");
  (* rejections *)
  List.iter
    (fun bad ->
      match Obs.Slo.parse bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      "";
      "p99=250ms" (* no route *);
      "route=/map" (* no objective *);
      "route=/map,p99=fast";
      "route=/map,p99=0ms";
      "route=/map,err=150%";
      "route=/map,err=0";
      "route=/map,latency=250ms" (* unknown key *);
      "route=,p99=250ms";
    ];
  (* parse_all surfaces the first error *)
  (match Obs.Slo.parse_all [ "route=/map,p99=1ms"; "bogus" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse_all ignored a bad spec");
  match Obs.Slo.parse_all [ "route=/a,p99=1ms"; "route=/b,err=1%" ] with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first" "/a" a.Obs.Slo.o_route;
      Alcotest.(check string) "second" "/b" b.Obs.Slo.o_route
  | _ -> Alcotest.fail "parse_all lost a spec"

let test_slo_parse_file () =
  let path = Filename.temp_file "turbosyn-slo" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            "# objectives for the serve smoke\n\n\
             route=/map,p99=250ms,err=0.1%\n\
             route=/healthz,p95=5ms\n");
      match Obs.Slo.parse_file path with
      | Ok [ a; b ] ->
          Alcotest.(check string) "first route" "/map" a.Obs.Slo.o_route;
          Alcotest.(check string) "second route" "/healthz" b.Obs.Slo.o_route
      | Ok _ -> Alcotest.fail "wrong objective count"
      | Error e -> Alcotest.failf "parse_file: %s" e)

let test_slo_evaluate () =
  with_obs (fun () ->
      let o =
        match Obs.Slo.parse "route=/map,p99=250ms,err=0.1%" with
        | Ok o -> o
        | Error e -> Alcotest.failf "spec: %s" e
      in
      (* 20 fast observations, 5 slow: bad_fraction 0.2 against a p99
         objective burns at 0.2/0.01 = 20 *)
      let snap =
        snapshot_of_values
          (List.init 20 (fun _ -> 0.01) @ List.init 5 (fun _ -> 100.))
      in
      let v = Obs.Slo.evaluate o ~latency:snap ~total:25 ~errors:1 in
      (match v.Obs.Slo.v_latency with
      | Some l ->
          Alcotest.(check int) "good" 20 l.Obs.Slo.lv_good;
          Alcotest.(check int) "count" 25 l.Obs.Slo.lv_count;
          Alcotest.(check (float 1e-9)) "bad fraction" 0.2
            l.Obs.Slo.lv_bad_fraction;
          Alcotest.(check (float 1e-6)) "latency burn" 20. l.Obs.Slo.lv_burn;
          Alcotest.(check bool) "latency violated" false l.Obs.Slo.lv_ok;
          (* the evaluated boundary is the documented bucket upper *)
          Alcotest.(check (float 1e-12)) "good upper"
            (Obs.Histogram.bucket_upper (Obs.Histogram.bucket_of 0.25))
            l.Obs.Slo.lv_good_upper
      | None -> Alcotest.fail "no latency verdict");
      (match v.Obs.Slo.v_err with
      | Some e ->
          Alcotest.(check (float 1e-9)) "error rate" 0.04 e.Obs.Slo.ev_rate;
          Alcotest.(check (float 1e-6)) "error burn" 40. e.Obs.Slo.ev_burn;
          Alcotest.(check bool) "errors violated" false e.Obs.Slo.ev_ok
      | None -> Alcotest.fail "no error verdict");
      Alcotest.(check bool) "overall violated" false v.Obs.Slo.v_ok;
      (* empty data burns nothing *)
      let v0 =
        Obs.Slo.evaluate o ~latency:(snapshot_of_values []) ~total:0
          ~errors:0
      in
      Alcotest.(check bool) "empty ok" true v0.Obs.Slo.v_ok;
      (match v0.Obs.Slo.v_latency with
      | Some l -> Alcotest.(check (float 0.)) "empty burn" 0. l.Obs.Slo.lv_burn
      | None -> Alcotest.fail "no latency verdict on empty");
      (* the verdict document parses and carries the burn rates *)
      (match
         Obs.Json.of_string (Obs.Json.to_string (Obs.Slo.verdict_json v))
       with
      | Error e -> Alcotest.failf "verdict json: %s" e
      | Ok doc -> (
          Alcotest.(check bool) "route member" true
            (Obs.Json.member "route" doc = Some (Obs.Json.Str "/map"));
          match Obs.Json.member "latency" doc with
          | Some lat ->
              Alcotest.(check bool) "burn member" true
                (Obs.Json.member "burn_rate" lat <> None)
          | None -> Alcotest.fail "no latency object"));
      (* the scrape families render and validate *)
      let fams = Obs.Slo.families [ v ] in
      Alcotest.(check int) "five families" 5 (List.length fams);
      match Obs.Prometheus.validate (Obs.Prometheus.render ~extra:fams ()) with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "slo families invalid: %s" (String.concat "; " es))

(* qcheck: [lv_good] always equals the recomputation from the published
   boundary over the snapshot's cumulative buckets, and the burn rate
   follows from (good, count, q) — the exact arithmetic the serve-load
   bench replays from a /metrics scrape. *)
let test_slo_reproduction () =
  with_obs (fun () ->
      let gen =
        QCheck.Gen.(pair (list_size (0 -- 64) value_gen) (float_range 1e-4 10.))
      in
      let print (vs, t) =
        Printf.sprintf "target=%g values=[%s]" t (print_values vs)
      in
      run_qcheck
        (QCheck.Test.make ~count:200 ~name:"burn rate reproducible"
           (QCheck.make ~print gen)
           (fun (vs, target) ->
             let spec = Printf.sprintf "route=/map,p99=%fs" target in
             match Obs.Slo.parse spec with
             | Error _ -> false
             | Ok o -> (
                 let snap = snapshot_of_values vs in
                 let total = List.length vs in
                 let v = Obs.Slo.evaluate o ~latency:snap ~total ~errors:0 in
                 match v.Obs.Slo.v_latency with
                 | None -> false
                 | Some l ->
                     let good_re =
                       List.fold_left
                         (fun acc (i, c) ->
                           if
                             Obs.Histogram.bucket_upper i
                             <= l.Obs.Slo.lv_good_upper
                           then acc + c
                           else acc)
                         0 snap.Obs.Histogram.s_buckets
                     in
                     let burn_re =
                       if l.Obs.Slo.lv_count = 0 then 0.
                       else
                         float_of_int (l.Obs.Slo.lv_count - good_re)
                         /. float_of_int l.Obs.Slo.lv_count
                         /. (1. -. l.Obs.Slo.lv_quantile)
                     in
                     good_re = l.Obs.Slo.lv_good
                     && Float.abs (burn_re -. l.Obs.Slo.lv_burn) <= 1e-9))))

(* ---------------------------------------------------------------- *)
(* Structured logging                                                *)
(* ---------------------------------------------------------------- *)

(* route to the null sink and restore defaults afterwards *)
let with_log f =
  Obs.Log.to_null ();
  Obs.Log.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_ring_capacity Obs.Log.default_ring_capacity;
      Obs.Log.set_level Obs.Log.Info;
      Obs.Log.clear ();
      Obs.Log.to_stderr ())
    f

let test_log_levels_and_ring () =
  with_log (fun () ->
      (* logging is independent of the metrics switch *)
      Obs.set_enabled false;
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.info "test.below" [];
      Alcotest.(check int) "below threshold dropped" 0 (Obs.Log.length ());
      Obs.Log.error "test.above" [];
      Alcotest.(check int) "above threshold kept" 1 (Obs.Log.length ());
      Alcotest.(check bool) "enabled_for" true
        ((not (Obs.Log.enabled_for Obs.Log.Debug))
        && Obs.Log.enabled_for Obs.Log.Error);
      (* bounded ring *)
      Obs.Log.clear ();
      Obs.Log.set_level Obs.Log.Debug;
      Obs.Log.set_ring_capacity 4;
      for i = 0 to 5 do
        Obs.Log.debug "test.tick" [ ("i", Obs.Json.Int i) ]
      done;
      Alcotest.(check int) "ring bounded" 4 (Obs.Log.length ());
      Alcotest.(check int) "ring drops counted" 2 (Obs.Log.dropped ());
      (match Obs.Log.recent () with
      | first :: _ ->
          Alcotest.(check bool) "oldest surviving record" true
            (first.Obs.Log.fields = [ ("i", Obs.Json.Int 2) ])
      | [] -> Alcotest.fail "ring empty");
      (* level names round trip, and "warning" is accepted *)
      List.iter
        (fun lvl ->
          Alcotest.(check (option bool)) (Obs.Log.level_name lvl) (Some true)
            (Option.map
               (fun l -> l = lvl)
               (Obs.Log.level_of_string (Obs.Log.level_name lvl))))
        [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
      Alcotest.(check bool) "warning alias" true
        (Obs.Log.level_of_string "WARNING" = Some Obs.Log.Warn);
      Alcotest.(check bool) "unknown level" true
        (Obs.Log.level_of_string "loud" = None))

let test_log_schema_and_request_id () =
  with_log (fun () ->
      Obs.Log.with_request_id "outer-req" (fun () ->
          Alcotest.(check (option string)) "ambient" (Some "outer-req")
            (Obs.Log.current_request_id ());
          Obs.Log.with_request_id "inner-req" (fun () ->
              Alcotest.(check (option string)) "shadowed" (Some "inner-req")
                (Obs.Log.current_request_id ()));
          Alcotest.(check (option string)) "restored" (Some "outer-req")
            (Obs.Log.current_request_id ());
          Obs.Log.info "test.rid" [ ("answer", Obs.Json.Int 42) ]);
      Alcotest.(check (option string)) "cleared outside" None
        (Obs.Log.current_request_id ());
      match List.rev (Obs.Log.recent ()) with
      | [] -> Alcotest.fail "no record ringed"
      | record :: _ ->
          Alcotest.(check (option string)) "record carries request id"
            (Some "outer-req") record.Obs.Log.request_id;
          (* the JSON line matches the documented turbosyn-log/1 shape *)
          let line = Obs.Json.to_string (Obs.Log.record_json record) in
          (match Obs.Json.of_string line with
          | Error e -> Alcotest.failf "log line does not parse: %s" e
          | Ok doc ->
              let str k =
                match Obs.Json.member k doc with
                | Some (Obs.Json.Str s) -> Some s
                | _ -> None
              in
              Alcotest.(check bool) "ts is a number" true
                (match Obs.Json.member "ts" doc with
                | Some (Obs.Json.Float _) | Some (Obs.Json.Int _) -> true
                | _ -> false);
              Alcotest.(check (option string)) "level" (Some "info")
                (str "level");
              Alcotest.(check (option string)) "event" (Some "test.rid")
                (str "event");
              Alcotest.(check (option string)) "request_id"
                (Some "outer-req") (str "request_id");
              Alcotest.(check bool) "field spliced" true
                (Obs.Json.member "answer" doc = Some (Obs.Json.Int 42))))

let test_log_file_sink () =
  let path = Filename.temp_file "turbosyn-log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.to_stderr ();
      Obs.Log.clear ();
      Obs.Log.set_level Obs.Log.Info;
      Sys.remove path)
    (fun () ->
      Obs.Log.to_file path;
      Alcotest.(check (option string)) "output path" (Some path)
        (Obs.Log.output_path ());
      Obs.Log.info "test.file" [ ("n", Obs.Json.Int 1) ];
      Obs.Log.info "test.file" [ ("n", Obs.Json.Int 2) ];
      Obs.Log.to_stderr ();
      Alcotest.(check (option string)) "path cleared" None
        (Obs.Log.output_path ());
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per record" 2 (List.length lines);
      List.iter
        (fun l ->
          match Obs.Json.of_string l with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "unparseable line %S: %s" l e)
        lines)

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "registry" `Quick test_counter_registry;
          Alcotest.test_case "record max" `Quick test_counter_record_max;
          Alcotest.test_case "negative add" `Quick test_counter_negative_add;
        ] );
      ( "disabled",
        [ Alcotest.test_case "all hooks no-op" `Quick test_disabled_no_ops ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "recursion" `Quick test_span_recursion;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
        ] );
      ("trace", [ Alcotest.test_case "ring buffer" `Quick test_trace_ring ]);
      ( "reset",
        [
          Alcotest.test_case "clears everything" `Quick
            test_reset_clears_everything;
          Alcotest.test_case "while entered" `Quick test_reset_while_entered;
        ] );
      ( "shard",
        [
          Alcotest.test_case "reset guard" `Quick test_shard_reset_guard;
          Alcotest.test_case "merge semantics" `Quick test_shard_merge;
          Alcotest.test_case "span and timeline" `Quick
            test_shard_span_and_timeline;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "properties" `Quick test_json_properties;
          Alcotest.test_case "depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "stats schema" `Quick test_stats_schema;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket layout" `Quick test_histogram_buckets;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "json round trip" `Quick test_histogram_json;
        ] );
      ( "scope",
        [
          Alcotest.test_case "capture and close" `Quick test_scope_capture;
          Alcotest.test_case "transparent merge" `Quick
            test_scope_transparency;
          Alcotest.test_case "nesting and lane shards" `Quick
            test_scope_nesting;
          Alcotest.test_case "fresh ids" `Quick test_scope_fresh_ids;
          Alcotest.test_case "concurrent merge associativity" `Quick
            test_scope_concurrent_merge;
        ] );
      ( "flame",
        [
          Alcotest.test_case "containment fold" `Quick test_flame_fold;
          Alcotest.test_case "timeline round trip" `Quick
            test_flame_timeline_round_trip;
          Alcotest.test_case "ring overflow" `Quick
            test_timeline_overflow_flame;
        ] );
      ( "prof",
        [
          Alcotest.test_case "lifecycle and reset guard" `Quick
            test_prof_lifecycle;
          Alcotest.test_case "sampling" `Quick test_prof_sampling;
          Alcotest.test_case "folded well-formed" `Quick
            test_prof_folded_qcheck;
        ] );
      ( "resources",
        [
          Alcotest.test_case "scope deltas" `Quick test_scope_resources;
          Alcotest.test_case "non-negative and additive" `Quick
            test_scope_resources_additive;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "parse file" `Quick test_slo_parse_file;
          Alcotest.test_case "evaluate" `Quick test_slo_evaluate;
          Alcotest.test_case "burn reproduction" `Quick
            test_slo_reproduction;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels and ring" `Quick
            test_log_levels_and_ring;
          Alcotest.test_case "schema and request id" `Quick
            test_log_schema_and_request_id;
          Alcotest.test_case "file sink" `Quick test_log_file_sink;
        ] );
    ]
