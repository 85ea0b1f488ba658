(* Tests for the audit layer: netlist/rational JSON codecs, build +
   independent verification of audit documents, rejection of mutated
   certificates, stats-diff regression gating, and the documents'
   invariance under Obs collection. *)

module J = Obs.Json
module Netlist = Circuit.Netlist
module Rat = Prelude.Rat

let suite name =
  match Workloads.Suite.find name with
  | Some spec -> Workloads.Suite.build spec
  | None -> Alcotest.failf "unknown suite circuit %s" name

let run_audit name =
  let nl = suite name in
  let options = Turbosyn.Synth.default_options ~k:5 () in
  let r = Turbosyn.Synth.run ~options `Turbosyn nl in
  match Audit.build ~source:nl ~options r with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: audit build failed: %s" name e

let verify_ok doc =
  match Audit.verify ~seed:7 doc with
  | Ok v -> v.Audit.v_ok
  | Error e -> Alcotest.failf "verify errored: %s" e

(* Replace member [k] of the object at path [path] using [f]. *)
let rec patch path f doc =
  match (path, doc) with
  | [], v -> f v
  | k :: rest, J.Obj members ->
      J.Obj
        (List.map
           (fun (k', v) -> if k' = k then (k', patch rest f v) else (k', v))
           members)
  | _ -> Alcotest.fail "patch: path does not lead through objects"

(* ---------------------------------------------------------------- *)
(* Codecs                                                           *)
(* ---------------------------------------------------------------- *)

let test_netlist_codec () =
  let nl = suite "bbara" in
  let j = Audit.Circuit_json.to_json nl in
  (* the document survives the printer and parser *)
  let j' =
    match J.of_string (J.to_string j) with
    | Ok v -> v
    | Error m -> Alcotest.failf "netlist json does not parse: %s" m
  in
  Alcotest.(check bool) "print/parse round trip" true (J.equal j j');
  (* decoding and re-encoding reproduces the document bit for bit *)
  match Audit.Circuit_json.of_json j' with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok nl' ->
      (match Netlist.validate ~k:6 nl' with
      | [] -> ()
      | e :: _ ->
          Alcotest.failf "decoded netlist invalid: %s"
            (Format.asprintf "%a" Netlist.pp_error e));
      Alcotest.(check bool) "re-encode fixpoint" true
        (J.equal j (Audit.Circuit_json.to_json nl'));
      let s = Netlist.stats nl and s' = Netlist.stats nl' in
      Alcotest.(check int) "gate count" s.Netlist.n_gates s'.Netlist.n_gates

let test_netlist_codec_rejects () =
  List.iter
    (fun bad ->
      match Audit.Circuit_json.of_json bad with
      | Ok _ -> Alcotest.fail "accepted a malformed netlist document"
      | Error _ -> ())
    [
      J.Null;
      J.Obj [ ("name", J.Str "x") ];
      J.Obj [ ("name", J.Str "x"); ("nodes", J.Int 3) ];
      (* gate with a dangling fanin *)
      J.Obj
        [
          ("name", J.Str "x");
          ( "nodes",
            J.List
              [
                J.Obj
                  [
                    ("kind", J.Str "gate");
                    ("name", J.Str "g");
                    ("arity", J.Int 1);
                    ("bits", J.Str "0x2");
                    ("fanins", J.List [ J.List [ J.Int 9; J.Int 0 ] ]);
                  ];
              ] );
        ];
    ]

let test_rat_codec () =
  List.iter
    (fun r ->
      match Audit.Circuit_json.(rat_of_json (rat_to_json r)) with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip %s" (Rat.to_string r))
            true (Rat.equal r r')
      | Error m -> Alcotest.failf "rat decode failed: %s" m)
    [ Rat.zero; Rat.one; Rat.make 7 3; Rat.make (-5) 4; Rat.of_int 123 ];
  List.iter
    (fun bad ->
      match Audit.Circuit_json.rat_of_json bad with
      | Ok _ -> Alcotest.fail "accepted a malformed rational"
      | Error _ -> ())
    [ J.Str ""; J.Str "a/b"; J.Str "1/0"; J.Int 3; J.Null ]

(* ---------------------------------------------------------------- *)
(* Build + verify                                                   *)
(* ---------------------------------------------------------------- *)

let test_verify_bbara () =
  let doc = run_audit "bbara" in
  Alcotest.(check bool) "bbara accepted" true (verify_ok doc)

let test_verify_second_circuit () =
  let doc = run_audit "dk16" in
  Alcotest.(check bool) "dk16 accepted" true (verify_ok doc)

(* ---------------------------------------------------------------- *)
(* Mutation rejection                                               *)
(* ---------------------------------------------------------------- *)

let failed_check doc =
  match Audit.verify ~seed:7 doc with
  | Ok v ->
      if v.Audit.v_ok then Alcotest.fail "mutated document accepted";
      let bad =
        List.filter (fun c -> not c.Audit.c_ok) v.Audit.v_checks in
      List.map (fun c -> c.Audit.c_name) bad
  | Error _ -> [ "malformed" ]

let test_reject_mutated_certificate () =
  let doc = run_audit "bbara" in
  match J.member "certificate" doc with
  | None | Some J.Null ->
      (* bbara has cycles through FFs; the certificate should exist *)
      Alcotest.fail "no certificate to mutate"
  | Some _ ->
      (* claim one fewer register on the loop: the ratio no longer
         matches delay/weight, or the edge sums break *)
      let doc' =
        patch [ "certificate" ]
          (function
            | J.Obj ms ->
                J.Obj
                  (List.map
                     (function
                       | "weight", J.Int w -> ("weight", J.Int (w + 1))
                       | m -> m)
                     ms)
            | _ -> Alcotest.fail "certificate not an object")
          doc
      in
      let bad = failed_check doc' in
      Alcotest.(check bool) "certificate check fires" true
        (List.mem "certificate" bad)

let test_reject_mutated_label () =
  let doc = run_audit "bbara" in
  let doc' =
    patch [ "labels" ]
      (function
        | J.List (l :: rest) ->
            (* labels are PI-first; bump the first gate label instead of
               a PI to hit the fixpoint rather than the pi-zero check *)
            let bump = function
              | J.Str s ->
                  (match Audit.Circuit_json.rat_of_json (J.Str s) with
                  | Ok r ->
                      Audit.Circuit_json.rat_to_json
                        (Rat.add r (Rat.of_int 1000))
                  | Error m -> Alcotest.failf "label decode: %s" m)
              | _ -> Alcotest.fail "label not a string"
            in
            J.List (bump l :: rest)
        | _ -> Alcotest.fail "labels not a list")
      doc
  in
  let bad = failed_check doc' in
  Alcotest.(check bool) "labels or provenance check fires" true
    (List.mem "labels-fixpoint" bad || List.mem "provenance" bad)

let test_reject_mutated_witness () =
  let doc = run_audit "bbara" in
  let doc' =
    patch [ "witness" ]
      (function
        | J.Obj ms ->
            J.Obj
              (List.map
                 (function
                   | "period", J.Int p -> ("period", J.Int (p - 1))
                   | m -> m)
                 ms)
        | _ -> Alcotest.fail "witness not an object")
      doc
  in
  let bad = failed_check doc' in
  Alcotest.(check bool) "witness check fires" true (List.mem "witness" bad)

(* ---------------------------------------------------------------- *)
(* Stats diff                                                       *)
(* ---------------------------------------------------------------- *)

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let test_diff_gating () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.diff-counter" in
      Obs.Counter.add c 100;
      Obs.Span.time (Obs.Span.make "test.diff-span") (fun () -> ());
      let base = Obs.Report.stats_json () in
      (* identical documents pass *)
      (match Audit.Diff.diff ~base ~cur:base () with
      | Ok d ->
          Alcotest.(check bool) "self diff ok" true d.Audit.Diff.ok;
          Alcotest.(check (list string)) "nothing missing" []
            d.Audit.Diff.missing
      | Error e -> Alcotest.failf "self diff errored: %s" e);
      (* inject a regression: the counter more than 1.25x + 16 over base *)
      let cur =
        patch [ "counters"; "test.diff-counter" ]
          (fun _ -> J.Int 200)
          base
      in
      (match Audit.Diff.diff ~base ~cur () with
      | Ok d ->
          Alcotest.(check bool) "regression detected" false d.Audit.Diff.ok;
          let item =
            List.find
              (fun i -> i.Audit.Diff.name = "test.diff-counter")
              d.Audit.Diff.counters
          in
          Alcotest.(check bool) "item regressed" true item.Audit.Diff.regressed;
          Alcotest.(check int) "limit" (125 + 16) item.Audit.Diff.limit
      | Error e -> Alcotest.failf "diff errored: %s" e);
      (* an override can absorb the same regression *)
      (match
         Audit.Diff.diff
           ~overrides:
             [ ("test.diff-counter", { Audit.Diff.ratio = 3.0; slack = 0 }) ]
           ~base ~cur ()
       with
      | Ok d -> Alcotest.(check bool) "override absorbs" true d.Audit.Diff.ok
      | Error e -> Alcotest.failf "diff errored: %s" e);
      (* a counter missing from the current document fails the diff *)
      let cur_missing =
        patch [ "counters" ]
          (function
            | J.Obj ms ->
                J.Obj (List.filter (fun (k, _) -> k <> "test.diff-counter") ms)
            | _ -> Alcotest.fail "counters not an object")
          base
      in
      (match Audit.Diff.diff ~base ~cur:cur_missing () with
      | Ok d ->
          Alcotest.(check bool) "missing counter fails" false d.Audit.Diff.ok;
          Alcotest.(check bool) "reported missing" true
            (List.mem "test.diff-counter" d.Audit.Diff.missing)
      | Error e -> Alcotest.failf "diff errored: %s" e);
      (* schema mismatch is a hard error *)
      match
        Audit.Diff.diff ~base ~cur:(J.Obj [ ("schema", J.Str "nope") ]) ()
      with
      | Ok _ -> Alcotest.fail "accepted a non-stats document"
      | Error _ -> ())

(* a committed v1 baseline keeps gating current documents: forward compat *)
let test_diff_v1_baseline () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.diff-v1-counter" in
      Obs.Counter.add c 100;
      Obs.Histogram.observe_int (Obs.Histogram.make "test.diff-v1-hist") 3;
      let cur = Obs.Report.stats_json () in
      Alcotest.(check (option string))
        "current is v3"
        (Some "turbosyn-stats/3")
        (match J.member "schema" cur with
        | Some (J.Str s) -> Some s
        | _ -> None);
      (* a v1 baseline: counters and spans only, no histograms section *)
      let base =
        J.Obj
          [
            ("schema", J.Str "turbosyn-stats/1");
            ("enabled", J.Bool true);
            ( "counters",
              J.Obj [ ("test.diff-v1-counter", J.Int 100) ] );
            ( "spans",
              J.Obj
                [
                  ( "test.absent-span",
                    J.Obj
                      [ ("seconds", J.Float 0.); ("entries", J.Int 0) ] );
                ] );
          ]
      in
      (* the v1 baseline's span is absent from the current registry only
         if never registered; register it so the diff is clean *)
      ignore (Obs.Span.make "test.absent-span");
      let cur = Obs.Report.stats_json () in
      (match Audit.Diff.diff ~base ~cur () with
      | Ok d ->
          Alcotest.(check bool) "v1 base vs v3 cur ok" true d.Audit.Diff.ok;
          Alcotest.(check (list string)) "nothing missing" [] d.Audit.Diff.missing
      | Error e -> Alcotest.failf "v1/v3 diff errored: %s" e);
      (* an injected counter regression still gates across versions *)
      let base_low =
        patch [ "counters"; "test.diff-v1-counter" ] (fun _ -> J.Int 10) base
      in
      (match Audit.Diff.diff ~base:base_low ~cur () with
      | Ok d ->
          Alcotest.(check bool) "regression detected across versions" false
            d.Audit.Diff.ok
      | Error e -> Alcotest.failf "v1/v3 diff errored: %s" e);
      (* the reverse skew — v3 baseline against a v1 document — errors *)
      match Audit.Diff.diff ~base:cur ~cur:base () with
      | Ok _ -> Alcotest.fail "accepted a newer baseline"
      | Error _ -> ())

(* a committed v2 baseline (whose span gc objects carry "compactions")
   keeps gating v3 documents *)
let test_diff_v2_baseline () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.diff-v2-counter" in
      Obs.Counter.add c 100;
      let s = Obs.Span.make "test.diff-v2-span" in
      Obs.Span.time s (fun () -> ());
      let cur = Obs.Report.stats_json () in
      let gc_v2 =
        J.Obj
          [
            ("minor_words", J.Float 10.);
            ("promoted_words", J.Float 0.);
            ("major_words", J.Float 0.);
            ("compactions", J.Int 0);
          ]
      in
      let base =
        J.Obj
          [
            ("schema", J.Str "turbosyn-stats/2");
            ("enabled", J.Bool true);
            ("counters", J.Obj [ ("test.diff-v2-counter", J.Int 100) ]);
            ("gauges", J.Obj []);
            ( "spans",
              J.Obj
                [
                  ( "test.diff-v2-span",
                    J.Obj
                      [
                        ("seconds", J.Float 0.);
                        ("entries", J.Int 1);
                        ("gc", gc_v2);
                      ] );
                ] );
            ("histograms", J.Obj []);
          ]
      in
      (match Audit.Diff.diff ~base ~cur () with
      | Ok d ->
          Alcotest.(check bool) "v2 base vs v3 cur ok" true d.Audit.Diff.ok;
          Alcotest.(check (list string)) "nothing missing" [] d.Audit.Diff.missing
      | Error e -> Alcotest.failf "v2/v3 diff errored: %s" e);
      let base_low =
        patch [ "counters"; "test.diff-v2-counter" ] (fun _ -> J.Int 10) base
      in
      (match Audit.Diff.diff ~base:base_low ~cur () with
      | Ok d ->
          Alcotest.(check bool) "regression detected across versions" false
            d.Audit.Diff.ok
      | Error e -> Alcotest.failf "v2/v3 diff errored: %s" e);
      match Audit.Diff.diff ~base:cur ~cur:base () with
      | Ok _ -> Alcotest.fail "accepted a v3 baseline against a v2 document"
      | Error _ -> ())

(* histogram observation counts gate when both documents carry them *)
let test_diff_histogram_gating () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.diff-hist" in
      for i = 1 to 100 do
        Obs.Histogram.observe_int h i
      done;
      let base = Obs.Report.stats_json () in
      (match Audit.Diff.diff ~base ~cur:base () with
      | Ok d ->
          Alcotest.(check bool) "self diff ok" true d.Audit.Diff.ok;
          Alcotest.(check bool) "histogram item present" true
            (List.exists
               (fun i -> i.Audit.Diff.name = "test.diff-hist")
               d.Audit.Diff.histograms)
      | Error e -> Alcotest.failf "self diff errored: %s" e);
      (* 100 -> 200 observations exceeds 100 * 1.25 + 16 *)
      let cur =
        patch
          [ "histograms"; "test.diff-hist"; "count" ]
          (fun _ -> J.Int 200)
          base
      in
      match Audit.Diff.diff ~base ~cur () with
      | Ok d ->
          Alcotest.(check bool) "histogram regression detected" false
            d.Audit.Diff.ok
      | Error e -> Alcotest.failf "diff errored: %s" e)

(* ---------------------------------------------------------------- *)
(* Document comparison and the Obs byte-identity oracle             *)
(* ---------------------------------------------------------------- *)

let test_equal_documents () =
  let doc =
    J.Obj
      [
        ("a", J.Int 1);
        ("b", J.List [ J.Str "x"; J.Obj [ ("c", J.Float 2.5) ] ]);
      ]
  in
  (match Audit.equal_documents doc doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "identical docs compared unequal: %s" e);
  let expect_error mutated sub =
    match Audit.equal_documents doc mutated with
    | Ok () -> Alcotest.fail "differing docs compared equal"
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "diagnosis %S mentions %S" e sub)
          true
          (try
             ignore (Str.search_forward (Str.regexp_string sub) e 0);
             true
           with Not_found -> false)
  in
  expect_error (J.Obj [ ("a", J.Int 2); ("b", J.Null) ]) "$.a";
  expect_error
    (J.Obj
       [ ("a", J.Int 1); ("b", J.List [ J.Str "x" ]) ])
    "$.b";
  expect_error
    (J.Obj
       [
         ("a", J.Int 1);
         ("b", J.List [ J.Str "y"; J.Obj [ ("c", J.Float 2.5) ] ]);
       ])
    "$.b[0]";
  expect_error
    (J.Obj
       [
         ("a", J.Int 1);
         ("b", J.List [ J.Str "x"; J.Obj [ ("c", J.Float 3.5) ] ]);
       ])
    "$.b[1].c"

(* Audit documents serialize everything downstream consumers see, so
   their equality with Obs collection off and on is the end-to-end
   byte-identity gate for the instrumentation: counters, spans and the
   timeline only observe the run, and this catches any accidental
   write-back into the synthesis state. *)
let test_obs_invariant_document () =
  let options = Turbosyn.Synth.default_options ~k:5 () in
  let doc_of nl =
    let r = Turbosyn.Synth.run ~options `Turbosyn nl in
    match Audit.build ~source:nl ~options r with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "%s: audit build failed: %s" (Netlist.name nl) e
  in
  let observed_doc_of nl =
    Obs.set_enabled true;
    Obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.reset ();
        Obs.set_enabled false)
      (fun () -> doc_of nl)
  in
  List.iter
    (fun name ->
      let nl = suite name in
      match Audit.equal_documents (doc_of nl) (observed_doc_of nl) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: observed document differs: %s" name e)
    [ "bbara"; "s298" ]

(* Whole flow on random circuits: each algorithm's result on a small
   K-bounded sequential circuit, searched exactly ([phi_max_den = None],
   so fractional phi* with varied denominators occur), must build an
   audit document the independent verifier accepts.  The verifier
   re-derives every label, height and witness in rationals, so this
   checks the label engine's scaled-integer labels against their
   rational meaning at arbitrary denominators.  Resynthesis only widens
   what a label may use, so phi(TurboSYN) <= phi(TurboMap) too.
   Returns the source and the results, in [`Turbomap; `Turbosyn;
   `Flowsyn_s] order. *)
let whole_flow seed =
  let rng = Prelude.Rng.create seed in
  let nl =
    Random_circuit.seq rng ~pis:3 ~gates:(8 + Prelude.Rng.int rng 9)
      ~max_arity:3
  in
  let k = 3 + Prelude.Rng.int rng 2 in
  let options =
    { (Turbosyn.Synth.default_options ~k ()) with phi_max_den = None }
  in
  let results =
    List.map
      (fun algo ->
        let r = Turbosyn.Synth.run ~options algo nl in
        match Audit.build ~source:nl ~options r with
        | Ok doc ->
            if not (verify_ok doc) then
              QCheck.Test.fail_reportf "seed %d, %s: audit rejected" seed
                (Turbosyn.Synth.algo_name algo);
            r
        | Error e ->
            QCheck.Test.fail_reportf "seed %d, %s: audit build failed: %s"
              seed (Turbosyn.Synth.algo_name algo) e)
      [ `Turbomap; `Turbosyn; `Flowsyn_s ]
  in
  (match results with
  | [ tm; ts; _ ] when Rat.compare ts.Turbosyn.Synth.phi tm.Turbosyn.Synth.phi > 0
    ->
      QCheck.Test.fail_reportf "seed %d: phi(turbosyn) %s > phi(turbomap) %s"
        seed
        (Rat.to_string ts.Turbosyn.Synth.phi)
        (Rat.to_string tm.Turbosyn.Synth.phi)
  | _ -> ());
  (nl, results)

let qcheck_whole_flow_audited =
  QCheck.Test.make ~name:"random circuits: every flow's audit accepted"
    ~count:100
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      ignore (whole_flow seed);
      true)

(* Seeds whose FlowSYN-s resynthesis collapses a gate's cone to a delayed
   copy of its own output (seed 379: g3 = f(g1, g1, g6@2) reduces to
   not g6@2 and g6 = not g3, so g6 = g6@2).  The mapping realizes that
   register ring as one identity LUT; it must audit and simulate equal
   to its source. *)
let test_flowsyn_projection_rings () =
  List.iter
    (fun seed ->
      let nl, results = whole_flow seed in
      let fs = List.nth results 2 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: flowsyn-s simulates equal" seed)
        true
        (Sim.Equiv.mapped_equal (Prelude.Rng.create seed) nl
           fs.Turbosyn.Synth.mapped))
    [ 379; 7874; 9793; 11253; 11477; 17766 ]

let () =
  Alcotest.run "audit"
    [
      ( "codec",
        [
          Alcotest.test_case "netlist round trip" `Quick test_netlist_codec;
          Alcotest.test_case "netlist rejects" `Quick test_netlist_codec_rejects;
          Alcotest.test_case "rational" `Quick test_rat_codec;
        ] );
      ( "verify",
        [
          Alcotest.test_case "bbara" `Slow test_verify_bbara;
          Alcotest.test_case "dk16" `Slow test_verify_second_circuit;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            qcheck_whole_flow_audited;
          Alcotest.test_case "flowsyn-s projection rings" `Quick
            test_flowsyn_projection_rings;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "certificate" `Slow test_reject_mutated_certificate;
          Alcotest.test_case "label" `Slow test_reject_mutated_label;
          Alcotest.test_case "witness" `Slow test_reject_mutated_witness;
        ] );
      ( "diff",
        [
          Alcotest.test_case "gating" `Quick test_diff_gating;
          Alcotest.test_case "v1 baseline vs v3 document" `Quick
            test_diff_v1_baseline;
          Alcotest.test_case "v2 baseline vs v3 document" `Quick
            test_diff_v2_baseline;
          Alcotest.test_case "histogram counts" `Quick
            test_diff_histogram_gating;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "equal_documents diagnosis" `Quick
            test_equal_documents;
          Alcotest.test_case "audit document, Obs on and off" `Slow
            test_obs_invariant_document;
        ] );
    ]
