(* Tests for the observability layer: counter registry semantics, span
   nesting, disabled-mode no-ops, timeline ring bounds, and the
   stats-report JSON schema (including a parse/print round trip). *)

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

(* The global timeline ring records nothing by default (capacity 0);
   run [f] with room for [cap] slices. *)
let with_ring cap f =
  Obs.Timeline.set_capacity cap;
  Fun.protect ~finally:(fun () -> Obs.Timeline.set_capacity 0) f

let ring_length () = List.length (Obs.Timeline.slices ())

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
  Alcotest.(check int) "span not entered" 0 (Obs.Span.count s)

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
(* Reset semantics                                                  *)
(* ---------------------------------------------------------------- *)

(* [Obs.reset] clears counters, spans and the timeline ring together —
   no consumer can observe a half-cleared state (doc/OBSERVABILITY.md,
   "Reset"). *)
let test_reset_clears_everything () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.reset-counter" in
      Obs.Counter.add c 9;
      let s = Obs.Span.make "test.reset-span" in
      with_ring 2 (fun () ->
          for _ = 0 to 4 do
            Obs.Span.time s (fun () -> ())
          done;
          Alcotest.(check int) "timeline bounded" 2 (ring_length ());
          Obs.reset ();
          Alcotest.(check int) "counter zero" 0 (Obs.Counter.value c);
          Alcotest.(check int) "span entries zero" 0 (Obs.Span.count s);
          Alcotest.(check int) "timeline empty" 0 (ring_length ())))

(* A span that is entered when reset runs loses its in-flight
   activation: the pending exit is ignored, and [entries] counts only
   activations completed entirely after the reset. *)
let test_reset_while_entered () =
  with_obs @@ fun () ->
  with_ring 16 (fun () ->
      let s = Obs.Span.make "test.reset-inflight" in
      Obs.Span.time s (fun () -> ());
      Alcotest.(check int) "one entry before" 1 (Obs.Span.count s);
      Obs.Span.enter s;
      Obs.reset ();
      Obs.Span.exit s;
      (* the orphaned exit is dropped, not counted *)
      Alcotest.(check int) "orphaned exit ignored" 0 (Obs.Span.count s);
      Alcotest.(check int) "no timeline slice from the orphan" 0
        (ring_length ());
      (* the span works normally afterwards *)
      Obs.Span.time s (fun () -> ());
      Alcotest.(check int) "fresh entry counts" 1 (Obs.Span.count s);
      Alcotest.(check int) "fresh slice recorded" 1 (ring_length ()))

(* ---------------------------------------------------------------- *)
(* Scope sinks: writes stay domain-local until the scope closes      *)
(* ---------------------------------------------------------------- *)

let test_shard_reset_guard () =
  with_obs (fun () ->
      let scope = Obs.Scope.create () in
      (match Obs.reset () with
      | () -> Alcotest.fail "Obs.reset succeeded with a scope open"
      | exception Invalid_argument _ -> ());
      ignore (Obs.Scope.close scope);
      (* reset works again once no scope is open *)
      Obs.reset ())

let test_shard_merge () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.shard-adds" in
      let p = Obs.Counter.make "test.shard-peak" in
      let h = Obs.Histogram.make "test.shard-hist" in
      Obs.Counter.incr c;
      Obs.Counter.record_max p 10;
      let scope = Obs.Scope.create () in
      Obs.Scope.run scope (fun () ->
          Obs.Counter.add c 4;
          Obs.Counter.record_max p 7;
          (* below the global peak: max-merge must keep 10 *)
          Obs.Histogram.observe h 1.0;
          Obs.Histogram.observe h 2.0);
      (* nothing reaches the globals until the scope closes *)
      let hist_count () = (Obs.Histogram.snapshot h).Obs.Histogram.s_count in
      Alcotest.(check int) "adds buffered" 1 (Obs.Counter.value c);
      Alcotest.(check int) "hist buffered" 0 (hist_count ());
      ignore (Obs.Scope.close scope);
      Alcotest.(check int) "adds merged by sum" 5 (Obs.Counter.value c);
      Alcotest.(check int) "peak merged by max" 10 (Obs.Counter.value p);
      Alcotest.(check int) "hist merged" 2 (hist_count ());
      (* a later scope raises the peak *)
      let (), _ = Obs.Scope.wrap (fun _ -> Obs.Counter.record_max p 25) in
      Alcotest.(check int) "peak raised by a later scope" 25
        (Obs.Counter.value p))

let test_shard_span_and_timeline () =
  with_obs @@ fun () ->
  with_ring 16 (fun () ->
      let s = Obs.Span.make "test.shard-span" in
      let scope = Obs.Scope.create () in
      Obs.Scope.run scope (fun () -> Obs.Span.time s (fun () -> ()));
      Alcotest.(check int) "span buffered" 0 (Obs.Span.count s);
      Alcotest.(check int) "timeline buffered" 0 (ring_length ());
      let summary = Obs.Scope.close scope in
      Alcotest.(check int) "span merged" 1 (Obs.Span.count s);
      (* the slice stays with the scope: close leaves the ring as it was *)
      Alcotest.(check int) "timeline unchanged by close" 0 (ring_length ());
      Alcotest.(check int) "slice in the summary" 1
        (List.length summary.Obs.Scope.sc_slices))

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

(* Two scopes observe [xs] and [ys]; their closes merge them into the
   global histogram.  The merge commutes (either close order gives the
   same snapshot), preserves mass, and buckets the values exactly as
   observing them all unscoped does. *)
let test_histogram_merge () =
  with_obs (fun () ->
      let pair_arb =
        QCheck.make
          ~print:(fun (xs, ys) ->
            Printf.sprintf "[%s] / [%s]" (print_values xs) (print_values ys))
          QCheck.Gen.(
            pair (list_size (0 -- 64) value_gen) (list_size (0 -- 64) value_gen))
      in
      let merged xs ys ~reverse_close =
        Obs.Histogram.reset_all ();
        let h = Obs.Histogram.make "test.hist-prop" in
        let observe vs =
          let scope = Obs.Scope.create () in
          Obs.Scope.run scope (fun () -> List.iter (Obs.Histogram.observe h) vs);
          scope
        in
        let scopes = [ observe xs; observe ys ] in
        List.iter
          (fun s -> ignore (Obs.Scope.close s))
          (if reverse_close then List.rev scopes else scopes);
        Obs.Histogram.snapshot h
      in
      run_qcheck
        (QCheck.Test.make ~count:200 ~name:"merge commutes and preserves mass"
           pair_arb (fun (xs, ys) ->
             let m = merged xs ys ~reverse_close:false in
             let bare = snapshot_of_values (xs @ ys) in
             m = merged xs ys ~reverse_close:true
             && m.Obs.Histogram.s_count = List.length xs + List.length ys
             && List.fold_left
                  (fun acc (_, c) -> acc + c)
                  0 m.Obs.Histogram.s_buckets
                = m.Obs.Histogram.s_count
             && m.Obs.Histogram.s_buckets = bare.Obs.Histogram.s_buckets
             && m.Obs.Histogram.s_min = bare.Obs.Histogram.s_min
             && m.Obs.Histogram.s_max = bare.Obs.Histogram.s_max)))

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
      (* a live scope holds a sink: reset refuses *)
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
        (List.exists
           (fun (n, _, _, _) -> n = "test.scope-span")
           summary.Obs.Scope.sc_spans);
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

(* one scope per domain at a time: a nested [run], or a [close] inside
   a [run], is refused instead of being routed somewhere silently *)
let test_scope_nested_run_refused () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.scope-nest" in
      let outer = Obs.Scope.create () in
      let inner = Obs.Scope.create () in
      Obs.Scope.run outer (fun () ->
          Obs.Counter.add c 2;
          Alcotest.(check bool) "nested run refused" true
            (match Obs.Scope.run inner (fun () -> Obs.Counter.add c 7) with
            | exception Invalid_argument _ -> true
            | () -> false);
          Alcotest.(check bool) "nested wrap refused" true
            (match Obs.Scope.wrap (fun _ -> Obs.Counter.add c 7) with
            | exception Invalid_argument _ -> true
            | _ -> false);
          Alcotest.(check bool) "close inside run refused" true
            (match Obs.Scope.close inner with
            | exception Invalid_argument _ -> true
            | _ -> false);
          (* the refusals left the outer scope installed *)
          Obs.Counter.add c 1;
          Alcotest.(check int) "outer still buffering" 0
            (Obs.Counter.value c));
      (* the outer run released the domain: the inner scope runs now *)
      Obs.Scope.run inner (fun () -> Obs.Counter.add c 3);
      let inner_summary = Obs.Scope.close inner in
      let outer_summary = Obs.Scope.close outer in
      Alcotest.(check (option int)) "inner summary" (Some 3)
        (List.assoc_opt "test.scope-nest" inner_summary.Obs.Scope.sc_counters);
      Alcotest.(check (option int)) "outer summary" (Some 3)
        (List.assoc_opt "test.scope-nest" outer_summary.Obs.Scope.sc_counters);
      Alcotest.(check int) "globals after both closes" 6
        (Obs.Counter.value c))

(* A scope keeps its latest [slice_capacity] slices and counts the
   rest; none reach the global ring. *)
let test_scope_slice_cap () =
  with_obs @@ fun () ->
  with_ring 16 (fun () ->
      let s = Obs.Span.make "test.scope-cap" in
      let extra = 5 in
      let (), summary =
        Obs.Scope.wrap (fun _ ->
            for _ = 1 to Obs.Scope.slice_capacity + extra do
              Obs.Span.time s (fun () -> ())
            done)
      in
      Alcotest.(check int) "slices capped" Obs.Scope.slice_capacity
        (List.length summary.Obs.Scope.sc_slices);
      Alcotest.(check int) "overflow counted" extra
        summary.Obs.Scope.sc_dropped_slices;
      Alcotest.(check int) "every entry merged"
        (Obs.Scope.slice_capacity + extra)
        (Obs.Span.count s);
      Alcotest.(check int) "ring untouched" 0 (ring_length ()))

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

(* A Chrome-trace document as the benchmark writes its trace files:
   one "X" event per slice, [ts]/[dur] in whole microseconds from the
   earliest start. *)
let chrome_trace slices =
  let t0 =
    List.fold_left
      (fun m (s : Obs.Timeline.slice) -> Float.min m s.start)
      infinity slices
  in
  let us t = Obs.Json.Float (Float.round (t *. 1e6)) in
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.map
             (fun (s : Obs.Timeline.slice) ->
               Obs.Json.Obj
                 [
                   ("name", Obs.Json.Str s.name);
                   ("ph", Obs.Json.Str "X");
                   ("ts", us (s.start -. t0));
                   ("dur", us (s.stop -. s.start));
                   ("pid", Obs.Json.Int 1);
                   ("tid", Obs.Json.Int 1);
                 ])
             slices) );
    ]

let test_flame_timeline_round_trip () =
  with_obs @@ fun () ->
  with_ring 16 (fun () ->
      let outer = Obs.Span.make "test.flame-outer" in
      let inner = Obs.Span.make "test.flame-inner" in
      Obs.Span.time outer (fun () ->
          Obs.Span.time inner (fun () -> Unix.sleepf 0.002));
      let slices = Obs.Timeline.slices () in
      Alcotest.(check int) "two slices" 2 (List.length slices);
      let direct = Obs.Flame.of_slices slices in
      (* through a Chrome-trace document, as `flame --from-timeline`
         consumes it *)
      match
        Obs.Json.of_string (Obs.Json.to_string (chrome_trace slices))
        |> Result.map Obs.Flame.of_timeline_json
      with
      | Error e | Ok (Error e) ->
          Alcotest.failf "trace does not parse back: %s" e
      | Ok (Ok recovered) ->
          let through = Obs.Flame.to_string recovered in
          Alcotest.(check bool) "both well-formed" true
            (folded_well_formed direct && folded_well_formed through);
          Alcotest.(check (list string))
            "same stacks"
            (List.map fst (Obs.Flame.fold_slices slices))
            (List.map fst recovered))

(* A document shaped like the benchmark's trace files: two runs on
   different threads, each with stage events carrying [args.parent] and
   [args.words], plus a metadata and an instant event, which are not
   slices.  The fold is exact. *)
let test_flame_benchmark_trace () =
  let doc =
    {|{"traceEvents":[
       {"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"perfbench"}},
       {"name":"bbara/turbomap","cat":"run","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1,"args":{"parent":"","words":5000}},
       {"name":"search","cat":"stage","ph":"X","ts":100,"dur":600,"pid":1,"tid":1,"args":{"parent":"bbara/turbomap","words":3000}},
       {"name":"mapgen","cat":"stage","ph":"X","ts":700,"dur":200,"pid":1,"tid":1,"args":{"parent":"bbara/turbomap","words":1000}},
       {"name":"note","cat":"event","ph":"i","ts":150,"s":"t","pid":1,"tid":1,"args":{}},
       {"name":"dk16/flowsyn-s","cat":"run","ph":"X","ts":2000,"dur":500,"pid":1,"tid":2,"args":{"parent":"","words":800}},
       {"name":"area","cat":"stage","ph":"X","ts":2100,"dur":300,"pid":1,"tid":2,"args":{"parent":"dk16/flowsyn-s","words":400}}
     ]}|}
  in
  match Obs.Json.of_string doc with
  | Error e -> Alcotest.failf "document: %s" e
  | Ok j -> (
      match Obs.Flame.of_timeline_json j with
      | Error e -> Alcotest.failf "slices: %s" e
      | Ok folded ->
          Alcotest.(check string) "folded text, X events only"
            "bbara/turbomap 200\n\
             bbara/turbomap;mapgen 200\n\
             bbara/turbomap;search 600\n\
             dk16/flowsyn-s 200\n\
             dk16/flowsyn-s;area 300\n"
            (Obs.Flame.to_string folded))

(* Two clients' requests on two threads, overlapping in time: each is
   its own root, never nested under the other (the serve benchmark's
   trace writes one span per request, a thread per client). *)
let test_flame_trace_threads () =
  let doc =
    {|{"traceEvents":[
       {"name":"miss","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1},
       {"name":"hit","ph":"X","ts":200,"dur":100,"pid":1,"tid":2},
       {"name":"hit","ph":"X","ts":500,"dur":100,"pid":1,"tid":1}
     ]}|}
  in
  match Result.map Obs.Flame.of_timeline_json (Obs.Json.of_string doc) with
  | Error e | Ok (Error e) -> Alcotest.failf "document: %s" e
  | Ok (Ok folded) ->
      Alcotest.(check string) "one root per thread, nesting within one"
        "hit 100\nmiss 900\nmiss;hit 100\n" (Obs.Flame.to_string folded)

(* ring overflow: with parents or children evicted, the fold stays
   well-formed *)
let test_timeline_overflow_flame () =
  with_obs @@ fun () ->
  with_ring 8 (fun () ->
      (* innermost-first recording (real exit order): eviction drops
         the innermost frames, keeping parents *)
      for i = 31 downto 0 do
        Obs.Timeline.record
          (Printf.sprintf "deep%d" i)
          ~start:(float_of_int i)
          ~stop:(float_of_int (64 - i))
      done;
      Alcotest.(check int) "ring bounded" 8 (ring_length ());
      let text = Obs.Flame.of_slices (Obs.Timeline.slices ()) in
      Alcotest.(check bool) "fold well-formed after child eviction" true
        (folded_well_formed text);
      (* outermost-first recording: eviction drops the PARENTS; the
         orphaned children must still fold cleanly *)
      Obs.reset ();
      for i = 0 to 31 do
        Obs.Timeline.record
          (Printf.sprintf "deep%d" i)
          ~start:(float_of_int i)
          ~stop:(float_of_int (64 - i))
      done;
      let text = Obs.Flame.of_slices (Obs.Timeline.slices ()) in
      Alcotest.(check bool) "fold well-formed after parent eviction" true
        (folded_well_formed text);
      Alcotest.(check bool) "deepest surviving frame is a root" true
        (String.length text >= 6 && String.sub text 0 6 = "deep24"))

(* qcheck: the timeline ring, growing and wrapping, keeps the newest
   [capacity] slices oldest first, also when the capacity is lowered or
   raised between records (a raise lets a wrapped ring grow again); and
   the in-place fold of the ring equals the fold of its slice list. *)
let test_timeline_ring_qcheck () =
  with_obs (fun () ->
      let gen =
        QCheck.Gen.(
          quad (1 -- 40) (1 -- 40)
            (list_size (0 -- 90) (pair (0 -- 50) (0 -- 20)))
            (list_size (0 -- 40) (pair (0 -- 50) (0 -- 20))))
      in
      Fun.protect
        ~finally:(fun () -> Obs.Timeline.set_capacity 0)
        (fun () ->
          run_qcheck
            (QCheck.Test.make ~count:200 ~name:"timeline ring order"
               (QCheck.make gen)
               (fun (cap, cap', before, after) ->
                 Obs.reset ();
                 Obs.Timeline.set_capacity cap;
                 (* the model: kept names oldest first *)
                 let kept = ref [] and next = ref 0 in
                 let trim cap =
                   let n = List.length !kept in
                   if n > cap then
                     kept := List.filteri (fun i _ -> i >= n - cap) !kept
                 in
                 let record cap (start, dur) =
                   let name = Printf.sprintf "ring.s%d" !next in
                   incr next;
                   Obs.Timeline.record name ~start:(float_of_int start)
                     ~stop:(float_of_int (start + dur));
                   kept := !kept @ [ name ];
                   trim cap
                 in
                 List.iter (record cap) before;
                 Obs.Timeline.set_capacity cap';
                 trim cap';
                 List.iter (record cap') after;
                 let slices = Obs.Timeline.slices () in
                 List.map (fun (s : Obs.Timeline.slice) -> s.name) slices
                 = !kept
                 && Obs.Flame.fold_timeline () = Obs.Flame.fold_slices slices))))

(* qcheck: whatever nesting program runs, the exact fold of its
   timeline is well-formed and conserves time — the weights of the
   lines through each span sum to that span's Span.seconds, within the
   1 us rounding of each line (a stack holds at most one outermost
   activation of a span, so every activation's subtree is counted
   once). *)
let test_flame_folded_qcheck () =
  with_obs @@ fun () ->
  with_ring max_int (fun () ->
      let frame_names = [| "flame.qa"; "flame.qb"; "flame.qc"; "flame.qd" |] in
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
        (QCheck.Test.make ~count:20 ~name:"exact folded stacks well-formed"
           (QCheck.make ~print gen)
           (fun paths ->
             Obs.reset ();
             List.iter
               (fun path ->
                 let rec nest = function
                   | [] -> Unix.sleepf 0.001
                   | i :: rest ->
                       Obs.Span.time
                         (Obs.Span.make frame_names.(i))
                         (fun () -> nest rest)
                 in
                 nest path)
               paths;
             let slices = Obs.Timeline.slices () in
             let text = Obs.Flame.of_slices slices in
             let lines =
               String.split_on_char '\n' text
               |> List.filter_map (fun line ->
                      match String.rindex_opt line ' ' with
                      | None -> None
                      | Some i ->
                          Some
                            ( String.split_on_char ';' (String.sub line 0 i),
                              float_of_string
                                (String.sub line (i + 1)
                                   (String.length line - i - 1)) ))
             in
             let entries = Obs.Flame.fold_slices slices in
             folded_well_formed text
             && Array.for_all
                  (fun name ->
                    let through frames = List.mem name frames in
                    let us =
                      List.fold_left
                        (fun acc (frames, w) ->
                          if through frames then acc +. w else acc)
                        0. lines
                    in
                    let n =
                      List.length
                        (List.filter
                           (fun (stack, _) ->
                             through (String.split_on_char ';' stack))
                           entries)
                    in
                    Float.abs
                      (us -. (Obs.Span.seconds (Obs.Span.make name) *. 1e6))
                    <= float_of_int n +. 1e-6)
                  frame_names)))

(* ---------------------------------------------------------------- *)
(* Scope resource accounting                                         *)
(* ---------------------------------------------------------------- *)

let test_scope_resources () =
  with_obs (fun () ->
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
   GC words being monotone per-domain counters — a parent scope left
   open while its children open and close in sequence on the same
   domain bounds the sum of their deltas. *)
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
               List.map
                 (fun n ->
                   let (), summary =
                     Obs.Scope.wrap (fun _ ->
                         ignore (Sys.opaque_identity (List.init n Fun.id)))
                   in
                   summary.Obs.Scope.sc_resources)
                 sizes
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
(* GC figures: exact, and the measuring domain's own                 *)
(* ---------------------------------------------------------------- *)

(* An array wider than Max_young_wosize (256 words) is allocated
   directly in the major heap: 1,000 fields and a header. *)
let major_block () = ignore (Sys.opaque_identity (Array.make 1000 0))

let test_span_gc_direct_major () =
  with_obs (fun () ->
      let s = Obs.Span.make "test.gc-direct-major" in
      Obs.Span.time s major_block;
      let g = Obs.Span.gc_totals s in
      Alcotest.(check bool)
        (Printf.sprintf "major words %.0f >= 1001" g.Obs.Span.major_words)
        true
        (g.Obs.Span.major_words >= 1001.))

(* Major words of a span run inside a scope around [during], and of the
   scope itself, both on the calling domain. *)
let major_words_around during =
  let name = "test.gc-beside-helper" in
  let s = Obs.Span.make name in
  let (), summary = Obs.Scope.wrap (fun _ -> Obs.Span.time s during) in
  let span =
    List.find_map
      (fun (n, _, _, (g : Obs.Span.gc_totals)) ->
        if String.equal n name then Some g.Obs.Span.major_words else None)
      summary.Obs.Scope.sc_spans
  in
  ( Option.value span ~default:nan,
    summary.Obs.Scope.sc_resources.Obs.Scope.r_major_words )

(* A helper domain allocates [helper_words] major words (and minor
   garbage, so collections run) while this domain measures; neither the
   span nor the scope may count more than a quarter of them. *)
let helper_words = 4_000_000

let check_not_counted (span, scope) =
  List.iter
    (fun (what, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s major words %.0f exclude the helper's" what words)
        true
        (words < float_of_int helper_words /. 4.))
    [ ("span", span); ("scope", scope) ]

let helper_step () =
  major_block ();
  ignore (Sys.opaque_identity (List.init 100 Fun.id))

let test_gc_helper_joined () =
  with_obs (fun () ->
      check_not_counted
        (major_words_around (fun () ->
             Domain.join
               (Domain.spawn (fun () ->
                    for _ = 1 to helper_words / 1000 do
                      helper_step ()
                    done)))))

let test_gc_helper_concurrent () =
  with_obs (fun () ->
      let stop = Atomic.make false and blocks = Atomic.make 0 in
      let helper =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              helper_step ();
              Atomic.incr blocks
            done)
      in
      while Atomic.get blocks = 0 do
        Domain.cpu_relax ()
      done;
      let words =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join helper)
          (fun () ->
            major_words_around (fun () ->
                let b0 = Atomic.get blocks in
                while Atomic.get blocks - b0 < helper_words / 1000 do
                  Domain.cpu_relax ()
                done))
      in
      check_not_counted words)

(* ---------------------------------------------------------------- *)
(* Structured logging                                                *)
(* ---------------------------------------------------------------- *)

let test_log_levels () =
  (* logging is independent of the metrics switch *)
  Obs.set_enabled false;
  let (), records =
    Log_capture.capture ~level:Obs.Log.Warn (fun () ->
        Obs.Log.info "test.below" [];
        Obs.Log.error "test.above" [];
        Alcotest.(check bool) "enabled_for" true
          ((not (Obs.Log.enabled_for Obs.Log.Debug))
          && Obs.Log.enabled_for Obs.Log.Error))
  in
  Alcotest.(check (list (option string)))
    "only the record at or above the threshold" [ Some "test.above" ]
    (List.map (Log_capture.str "event") records);
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
    (Obs.Log.level_of_string "loud" = None)

let test_log_schema_and_request_id () =
  let (), records =
    Log_capture.capture ~level:Obs.Log.Info (fun () ->
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
          (Obs.Log.current_request_id ()))
  in
  match records with
  | [ record ] ->
      (* the JSON line has the documented turbosyn-log/1 shape, its
         reserved members first and in order *)
      Alcotest.(check (list string))
        "member order"
        [ "ts"; "level"; "event"; "request_id"; "answer" ]
        (List.map fst record);
      Alcotest.(check bool) "ts is a number" true
        (match List.assoc_opt "ts" record with
        | Some (Obs.Json.Float _) | Some (Obs.Json.Int _) -> true
        | _ -> false);
      Alcotest.(check (option string)) "level" (Some "info")
        (Log_capture.str "level" record);
      Alcotest.(check (option string)) "event" (Some "test.rid")
        (Log_capture.str "event" record);
      Alcotest.(check (option string)) "request_id" (Some "outer-req")
        (Log_capture.str "request_id" record);
      Alcotest.(check bool) "field spliced" true
        (List.assoc_opt "answer" record = Some (Obs.Json.Int 42))
  | rs -> Alcotest.failf "%d records, expected one" (List.length rs)

let test_log_file_sink () =
  let path = Filename.temp_file "turbosyn-log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.to_stderr ();
      Sys.remove path)
    (fun () ->
      Obs.Log.to_file path;
      Obs.Log.info "test.file" [ ("n", Obs.Json.Int 1) ];
      (* a second open appends *)
      Obs.Log.to_file path;
      Obs.Log.info "test.file" [ ("n", Obs.Json.Int 2) ];
      Obs.Log.to_null ();
      Obs.Log.info "test.file" [ ("n", Obs.Json.Int 3) ];
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per record, none after to_null" 2
        (List.length lines);
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
        ] );
      ( "scope",
        [
          Alcotest.test_case "capture and close" `Quick test_scope_capture;
          Alcotest.test_case "transparent merge" `Quick
            test_scope_transparency;
          Alcotest.test_case "nested run refused" `Quick
            test_scope_nested_run_refused;
          Alcotest.test_case "fresh ids" `Quick test_scope_fresh_ids;
          Alcotest.test_case "slice cap" `Quick test_scope_slice_cap;
          Alcotest.test_case "concurrent merge associativity" `Quick
            test_scope_concurrent_merge;
        ] );
      ( "flame",
        [
          Alcotest.test_case "containment fold" `Quick test_flame_fold;
          Alcotest.test_case "timeline round trip" `Quick
            test_flame_timeline_round_trip;
          Alcotest.test_case "benchmark trace document" `Quick
            test_flame_benchmark_trace;
          Alcotest.test_case "trace threads fold as separate roots" `Quick
            test_flame_trace_threads;
          Alcotest.test_case "ring overflow" `Quick
            test_timeline_overflow_flame;
          Alcotest.test_case "folded well-formed" `Quick
            test_flame_folded_qcheck;
          Alcotest.test_case "ring order and in-place fold" `Quick
            test_timeline_ring_qcheck;
        ] );
      ( "resources",
        [
          Alcotest.test_case "scope deltas" `Quick test_scope_resources;
          Alcotest.test_case "non-negative and additive" `Quick
            test_scope_resources_additive;
        ] );
      ( "gc",
        [
          Alcotest.test_case "direct major allocation" `Quick
            test_span_gc_direct_major;
          Alcotest.test_case "joined helper domain not counted" `Quick
            test_gc_helper_joined;
          Alcotest.test_case "concurrent helper domain not counted" `Quick
            test_gc_helper_concurrent;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels" `Quick test_log_levels;
          Alcotest.test_case "schema and request id" `Quick
            test_log_schema_and_request_id;
          Alcotest.test_case "file sink" `Quick test_log_file_sink;
        ] );
    ]
