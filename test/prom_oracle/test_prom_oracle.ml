(* The exposition oracle must be able to fail: a well-formed body
   passes, and each one-line fault in it is reported by name. *)

let good =
  String.concat "\n"
    [
      "# HELP turbosyn_x Distribution x.";
      "# TYPE turbosyn_x histogram";
      "turbosyn_x_bucket{le=\"0.5\"} 1";
      "turbosyn_x_bucket{le=\"1\"} 3";
      "turbosyn_x_bucket{le=\"+Inf\"} 3";
      "turbosyn_x_sum 1.7";
      "turbosyn_x_count 3";
      "# HELP turbosyn_c_total Event counter c.";
      "# TYPE turbosyn_c_total counter";
      "turbosyn_c_total{phase=\"a.b\\\\c\"} 2";
      "turbosyn_c_total{phase=\"d\"} 1";
      "";
    ]

let replace ~sub ~by s =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | i ->
      String.sub s 0 i ^ by
      ^ String.sub s (i + String.length sub)
          (String.length s - i - String.length sub)
  | exception Not_found -> Alcotest.failf "fixture lacks %S" sub

let contains ~sub s =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

let test_accepts () =
  (match Prom_oracle.validate good with
  | Ok () -> ()
  | Error es -> Alcotest.failf "good body rejected: %s" (String.concat "; " es));
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      Obs.Counter.incr (Obs.Counter.make "oracle.events");
      List.iter
        (Obs.Histogram.observe (Obs.Histogram.make "oracle.seconds"))
        [ 0.001; 0.02; 0.02; 3. ];
      Obs.Span.time (Obs.Span.make "oracle.phase") ignore;
      match Prom_oracle.validate (Obs.Prometheus.render ()) with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "rendered scrape rejected: %s" (String.concat "; " es))

(* (case, line of [good] to replace, replacement, expected violation) *)
let faults =
  [
    ( "non-cumulative bucket",
      "turbosyn_x_bucket{le=\"1\"} 3",
      "turbosyn_x_bucket{le=\"1\"} 0",
      "bucket counts are not cumulative" );
    ( "+Inf bucket differs from _count",
      "turbosyn_x_count 3",
      "turbosyn_x_count 4",
      "_count does not equal the +Inf bucket" );
    ( "family split by another family",
      "turbosyn_c_total{phase=\"d\"} 1",
      "# HELP turbosyn_g Gauge g.\n# TYPE turbosyn_g gauge\nturbosyn_g 1\n\
       turbosyn_c_total{phase=\"d\"} 1",
      "samples of family turbosyn_c_total are not contiguous" );
    ( "bad label escape",
      "phase=\"d\"",
      "phase=\"\\d\"",
      "invalid escape \\d in label value" );
    ( "TYPE after the family's samples",
      "# TYPE turbosyn_c_total counter\n",
      "turbosyn_c_total 5\n# TYPE turbosyn_c_total counter\n",
      "TYPE for turbosyn_c_total appears after its samples" );
  ]

let test_rejects (_, sub, by, expected) () =
  match Prom_oracle.validate (replace ~sub ~by good) with
  | Ok () -> Alcotest.failf "accepted; expected %S" expected
  | Error es ->
      if not (List.exists (contains ~sub:expected) es) then
        Alcotest.failf "expected %S among: %s" expected (String.concat "; " es)

let () =
  Alcotest.run "prom_oracle"
    [
      ( "oracle",
        Alcotest.test_case "accepts well-formed scrapes" `Quick test_accepts
        :: List.map
             (fun ((name, _, _, _) as fault) ->
               Alcotest.test_case ("rejects " ^ name) `Quick
                 (test_rejects fault))
             faults );
    ]
