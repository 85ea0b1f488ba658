(* Tests for the prelude library: exact rationals, RNG, table printer. *)

open Prelude

let rat = Alcotest.testable Rat.pp Rat.equal

let test_make_normalizes () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  Alcotest.check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  Alcotest.check rat "0/-7 = 0" Rat.zero (Rat.make 0 (-7));
  Alcotest.check_raises "den 0" (Invalid_argument "Rat.make: zero denominator")
    (fun () -> ignore (Rat.make 1 0))

let test_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "1/2 / 1/3" (Rat.make 3 2) (Rat.div half third);
  Alcotest.check rat "neg" (Rat.make (-1) 2) (Rat.neg half);
  Alcotest.check rat "mul_int" (Rat.make 3 2) (Rat.mul_int half 3);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div half Rat.zero))

let test_floor_ceil () =
  let check_fc name r fl ce =
    Alcotest.(check int) (name ^ " floor") fl (Rat.floor r);
    Alcotest.(check int) (name ^ " ceil") ce (Rat.ceil r)
  in
  check_fc "3/2" (Rat.make 3 2) 1 2;
  check_fc "-3/2" (Rat.make (-3) 2) (-2) (-1);
  check_fc "2" (Rat.of_int 2) 2 2;
  check_fc "-2" (Rat.of_int (-2)) (-2) (-2);
  check_fc "0" Rat.zero 0 0

let test_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true Rat.(make 1 2 < make 2 3);
  Alcotest.(check bool) "2/3 > 1/2" true Rat.(make 2 3 > make 1 2);
  Alcotest.(check bool) "1/2 <= 2/4" true Rat.(make 1 2 <= make 2 4);
  Alcotest.check rat "min" (Rat.make 1 2) (Rat.min (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.check rat "max" (Rat.make 2 3) (Rat.max (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "sign neg" (-1) (Rat.sign (Rat.make (-1) 5));
  Alcotest.(check int) "sign zero" 0 (Rat.sign Rat.zero)

let test_mediant () =
  Alcotest.check rat "mediant 0/1 1/1" (Rat.make 1 2)
    (Rat.mediant Rat.zero Rat.one)

(* stern_brocot_min must recover an arbitrary hidden threshold exactly. *)
let test_stern_brocot_exact () =
  let check_threshold p q =
    let theta = Rat.make p q in
    let feasible r = Rat.(r >= theta) in
    match
      Rat.stern_brocot_min ~lo:Rat.zero ~hi:(Rat.of_int 4096) ~max_den:4096
        ~feasible
    with
    | None -> Alcotest.failf "no result for %d/%d" p q
    | Some r -> Alcotest.check rat (Printf.sprintf "theta %d/%d" p q) theta r
  in
  check_threshold 1 1;
  check_threshold 355 113;
  check_threshold 1 4096;
  check_threshold 4095 4096;
  check_threshold 2048 1;
  check_threshold 17 5;
  check_threshold 1000 999

let test_stern_brocot_none () =
  let r =
    Rat.stern_brocot_min ~lo:Rat.zero ~hi:Rat.one ~max_den:10 ~feasible:(fun _ ->
        false)
  in
  Alcotest.(check bool) "no feasible" true (r = None)

let test_stern_brocot_lo_feasible () =
  let r =
    Rat.stern_brocot_min ~lo:Rat.one ~hi:(Rat.of_int 2) ~max_den:10
      ~feasible:(fun _ -> true)
  in
  Alcotest.check rat "lo returned" Rat.one
    (match r with Some x -> x | None -> Alcotest.fail "expected Some")

(* The distinct points [stern_brocot_min] probes, in first-probe order,
   and its answer. *)
let probe_order ~lo ~hi ~max_den ~feasible =
  let seen = ref [] in
  let feasible r =
    if not (List.exists (Rat.equal r) !seen) then seen := r :: !seen;
    feasible r
  in
  let got = Rat.stern_brocot_min ~lo ~hi ~max_den ~feasible in
  (List.rev !seen, got)

(* A fractional threshold pays one feasible probe at n - 1/max_den (here
   95/24) before the ladder below n runs as it always has. *)
let test_stern_brocot_fractional_probes () =
  let theta = Rat.make 7 2 in
  let probes, got =
    probe_order ~lo:Rat.one ~hi:(Rat.of_int 8) ~max_den:24 ~feasible:(fun r ->
        Rat.(r >= theta))
  in
  Alcotest.(check (option rat)) "answer" (Some theta) got;
  Alcotest.(check (list string))
    "probe order"
    [ "8"; "1"; "2"; "4"; "3"; "95/24"; "7/2"; "13/4"; "10/3"; "80/23" ]
    (List.map Rat.to_string probes)

let qcheck_rat_props =
  let open QCheck in
  let gen_rat =
    let g =
      Gen.map2
        (fun n d -> Rat.make n (1 + abs d))
        (Gen.int_range (-1000) 1000) (Gen.int_range 0 999)
    in
    make ~print:Rat.to_string g
  in
  [
    Test.make ~name:"add commutes" ~count:500 (pair gen_rat gen_rat)
      (fun (a, b) -> Rat.equal (Rat.add a b) (Rat.add b a));
    Test.make ~name:"add assoc" ~count:500 (triple gen_rat gen_rat gen_rat)
      (fun (a, b, c) ->
        Rat.equal (Rat.add a (Rat.add b c)) (Rat.add (Rat.add a b) c));
    Test.make ~name:"sub inverse of add" ~count:500 (pair gen_rat gen_rat)
      (fun (a, b) -> Rat.equal a (Rat.sub (Rat.add a b) b));
    Test.make ~name:"mul distributes" ~count:500 (triple gen_rat gen_rat gen_rat)
      (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    Test.make ~name:"floor <= r < floor+1" ~count:500 gen_rat (fun r ->
        let f = Rat.floor r in
        Rat.(of_int f <= r) && Rat.(r < of_int (f + 1)));
    Test.make ~name:"ceil is -floor(-r)" ~count:500 gen_rat (fun r ->
        Rat.ceil r = -Rat.floor (Rat.neg r));
    Test.make ~name:"compare consistent with float" ~count:500
      (pair gen_rat gen_rat) (fun (a, b) ->
        let c = Rat.compare a b in
        let fc = compare (Rat.to_float a) (Rat.to_float b) in
        (* floats of small rationals are exact enough for sign agreement *)
        (c = 0 && fc = 0) || (c < 0 && fc < 0) || (c > 0 && fc > 0));
    Test.make ~name:"normalized: gcd(num,den)=1" ~count:500 gen_rat (fun r ->
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        Rat.den r > 0 && gcd (abs (Rat.num r)) (Rat.den r) <= 1 || Rat.num r = 0);
    Test.make ~name:"mediant lies strictly between" ~count:500
      (pair gen_rat gen_rat) (fun (a, b) ->
        QCheck.assume (not (Rat.equal a b));
        let lo = Rat.min a b and hi = Rat.max a b in
        let m = Rat.mediant lo hi in
        Rat.(lo < m) && Rat.(m < hi));
  ]

let qcheck_stern_brocot =
  let open QCheck in
  let gen =
    Gen.(
      let* den = int_range 1 64 in
      let* num = int_range 1 (4 * den) in
      return (num, den))
  in
  [
    Test.make ~name:"stern-brocot recovers random thresholds" ~count:200
      (make ~print:(fun (p, q) -> Printf.sprintf "%d/%d" p q) gen)
      (fun (p, q) ->
        let theta = Rat.make p q in
        match
          Rat.stern_brocot_min ~lo:Rat.zero ~hi:(Rat.of_int 256) ~max_den:64
            ~feasible:(fun r -> Rat.(r >= theta))
        with
        | Some r -> Rat.equal r theta
        | None -> false);
    (* Against brute force over every fraction with a denominator within
       budget, for a memo-free oracle: each point of the walk may be
       asked again, and the answer must still be the true minimum.  The
       threshold sits exactly at a fraction p/q of the grid (often a
       Farey neighbour of the walk's bracket), a hair above or below it
       (strictly less than any grid spacing), or is reached only with
       [>]; drawing p/q up to [hi + 1] and [lo = hi] include searches
       where every point of the walk is infeasible. *)
    Test.make ~name:"stern-brocot matches brute force" ~count:300
      (make
         ~print:(fun (lo, hi, n, (p, q), shift, strict) ->
           Printf.sprintf "lo=%d hi=%d max_den=%d theta=%d/%d%+d/eps %s" lo hi
             n p q shift
             (if strict then ">" else ">="))
         Gen.(
           let* hi = int_range 1 6 in
           let* lo = int_range 0 hi in
           let* n = int_range 1 40 in
           let* q = int_range 1 n in
           let* p = int_range 0 ((hi + 1) * q) in
           let* shift = int_range (-1) 1 in
           let* strict = bool in
           return (lo, hi, n, (p, q), shift, strict)))
      (fun (lo, hi, n, (p, q), shift, strict) ->
        (* |shift| * eps is below half the smallest gap 1/(n*n) between
           grid fractions *)
        let eps = Rat.make shift (2 * (n + 1) * (n + 1)) in
        let theta = Rat.add (Rat.make p q) eps in
        let feasible r = if strict then Rat.(r > theta) else Rat.(r >= theta) in
        let lo = Rat.of_int lo and hi = Rat.of_int hi in
        let brute =
          if feasible lo then Some lo
          else begin
            let best = ref None in
            for d = 1 to n do
              for num = (Rat.floor lo * d) + 1 to Rat.floor hi * d do
                let r = Rat.make num d in
                if Rat.(r > lo) && feasible r then
                  match !best with
                  | Some b when Rat.(b <= r) -> ()
                  | _ -> best := Some r
              done
            done;
            !best
          end
        in
        let got = Rat.stern_brocot_min ~lo ~hi ~max_den:n ~feasible in
        Option.equal Rat.equal brute got);
    (* An integer threshold n is certified by a single probe strictly
       between n - 1 and n: the Farey neighbour n - 1/max_den. *)
    Test.make ~name:"stern-brocot certifies an integer with one probe"
      ~count:300
      (make
         ~print:(fun (lo, hi, n, d) ->
           Printf.sprintf "lo=%d hi=%d n=%d max_den=%d" lo hi n d)
         Gen.(
           let* hi = int_range 2 40 in
           let* n = int_range 2 hi in
           let* lo = int_range 0 (n - 2) in
           let* d = int_range 2 64 in
           return (lo, hi, n, d)))
      (fun (lo, hi, n, d) ->
        let probes, got =
          probe_order ~lo:(Rat.of_int lo) ~hi:(Rat.of_int hi) ~max_den:d
            ~feasible:(fun r -> Rat.(r >= of_int n))
        in
        let inside =
          List.filter
            (fun r -> Rat.(r > of_int (n - 1)) && Rat.(r < of_int n))
            probes
        in
        Option.equal Rat.equal got (Some (Rat.of_int n))
        && List.equal Rat.equal inside [ Rat.make ((n * d) - 1) d ]);
  ]

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let c = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 c in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let test_rng_of_string () =
  let a = Rng.of_string "bbara" and b = Rng.of_string "bbara" in
  let c = Rng.of_string "bbsse" in
  Alcotest.(check int64) "same name same stream" (Rng.int64 a) (Rng.int64 b);
  let a2 = Rng.of_string "bbara" in
  Alcotest.(check bool) "different names differ" true
    (Rng.int64 a2 <> Rng.int64 c)

let test_rng_sample () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    let s = Rng.sample r 10 30 in
    Alcotest.(check int) "size" 10 (List.length s);
    Alcotest.(check int) "distinct" 10
      (List.length (List.sort_uniq compare s));
    List.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < 30)) s
  done;
  let all = List.sort compare (Rng.sample r 5 5) in
  Alcotest.(check (list int)) "k=n is a permutation" [ 0; 1; 2; 3; 4 ] all

let test_rng_shuffle () =
  let r = Rng.create 9 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "foo"; "12" ];
  Table.add_row t [ "barbaz"; "3" ];
  Table.add_rule t;
  Table.add_row t [ "sum"; "15" ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0
    &&
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
    List.length lines = 6
    && String.trim (List.nth lines 0) = "| name   |  n |")

let test_table_pads_short_rows () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "x" ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Table.add_row t [ "1"; "2"; "3" ])

let test_timer () =
  let (), dt = Timer.time (fun () -> ignore (Sys.opaque_identity (Array.make 1000 0))) in
  Alcotest.(check bool) "non-negative wall" true (dt >= 0.0);
  let (), dc = Timer.time_cpu (fun () -> ()) in
  Alcotest.(check bool) "non-negative cpu" true (dc >= 0.0)

(* ---------------------------------------------------------------- *)
(* Bqueue: the bounded MPMC queue behind the serve worker pool       *)
(* ---------------------------------------------------------------- *)

let test_bqueue_basic () =
  let q = Prelude.Bqueue.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Prelude.Bqueue.capacity q);
  Alcotest.(check bool) "push 1" true (Prelude.Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Prelude.Bqueue.try_push q 2);
  Alcotest.(check bool) "full rejects" false (Prelude.Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Prelude.Bqueue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Prelude.Bqueue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Prelude.Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Prelude.Bqueue.try_push q 4);
  Prelude.Bqueue.close q;
  Alcotest.(check bool) "closed rejects" false (Prelude.Bqueue.try_push q 5);
  Alcotest.(check (option int)) "drains after close" (Some 4)
    (Prelude.Bqueue.pop q);
  Alcotest.(check (option int)) "then empty" None (Prelude.Bqueue.pop q);
  Alcotest.(check bool) "is_closed" true (Prelude.Bqueue.is_closed q);
  (* zero capacity: the always-shed configuration *)
  let z = Prelude.Bqueue.create ~capacity:0 in
  Alcotest.(check bool) "zero capacity rejects" false
    (Prelude.Bqueue.try_push z 1);
  Alcotest.check
    (Alcotest.testable (fun fmt -> Format.fprintf fmt "%b") ( = ))
    "negative capacity raises" true
    (try
       ignore (Prelude.Bqueue.create ~capacity:(-1));
       false
     with Invalid_argument _ -> true)

let test_bqueue_concurrent () =
  (* N producers x M consumers: every pushed element is popped exactly
     once, consumers unblock and exit on close *)
  let q = Prelude.Bqueue.create ~capacity:4 in
  let producers, consumers, per = (3, 3, 200) in
  let popped = Array.init consumers (fun _ -> ref []) in
  let cs =
    Array.init consumers (fun c ->
        Domain.spawn (fun () ->
            let rec go () =
              match Prelude.Bqueue.pop q with
              | Some v ->
                  popped.(c) := v :: !(popped.(c));
                  go ()
              | None -> ()
            in
            go ()))
  in
  let ps =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              let v = (p * per) + i in
              (* spin until the bounded queue has room *)
              while not (Prelude.Bqueue.try_push q v) do
                Domain.cpu_relax ()
              done
            done))
  in
  Array.iter Domain.join ps;
  Prelude.Bqueue.close q;
  Array.iter Domain.join cs;
  let all =
    Array.to_list popped |> List.concat_map (fun r -> !r) |> List.sort compare
  in
  Alcotest.(check int) "element count" (producers * per) (List.length all);
  Alcotest.(check (list int)) "each element exactly once"
    (List.init (producers * per) Fun.id)
    all

let () =
  Alcotest.run "prelude"
    [
      ( "rat",
        [
          Alcotest.test_case "make normalizes" `Quick test_make_normalizes;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare/min/max/sign" `Quick test_compare;
          Alcotest.test_case "mediant" `Quick test_mediant;
          Alcotest.test_case "stern-brocot exact" `Quick test_stern_brocot_exact;
          Alcotest.test_case "stern-brocot none" `Quick test_stern_brocot_none;
          Alcotest.test_case "stern-brocot lo feasible" `Quick
            test_stern_brocot_lo_feasible;
          Alcotest.test_case "stern-brocot fractional probes" `Quick
            test_stern_brocot_fractional_probes;
        ] );
      ("rat-props", List.map QCheck_alcotest.to_alcotest qcheck_rat_props);
      ("stern-brocot-props", List.map QCheck_alcotest.to_alcotest qcheck_stern_brocot);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "of_string" `Quick test_rng_of_string;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "padding" `Quick test_table_pads_short_rows;
        ] );
      ("timer", [ Alcotest.test_case "timing" `Quick test_timer ]);
      ( "bqueue",
        [
          Alcotest.test_case "basic" `Quick test_bqueue_basic;
          Alcotest.test_case "concurrent" `Quick test_bqueue_concurrent;
        ] );
    ]
