(* Tests for cofactor classes and single-output functional decomposition. *)

open Prelude
open Logic
open Decomp

let mk_f_bdd man tt vars = Bdd.of_truthtable man tt vars

let test_classes_xor () =
  let man = Bdd.new_man () in
  let tt = Truthtable.xor_all 4 in
  let f = mk_f_bdd man tt [| 0; 1; 2; 3 |] in
  (* any bound set of an xor has exactly 2 classes *)
  List.iter
    (fun bound ->
      Alcotest.(check int) "xor mu=2" 2
        (Classes.multiplicity man f ~bound:(Array.of_list bound)))
    [ [ 0 ]; [ 0; 1 ]; [ 1; 3 ]; [ 0; 1; 2 ] ]

let test_classes_and () =
  let man = Bdd.new_man () in
  let tt = Truthtable.and_all 4 in
  let f = mk_f_bdd man tt [| 0; 1; 2; 3 |] in
  (* and: bound cofactors are (0,...,0, product of free) => 2 classes *)
  Alcotest.(check int) "and mu=2" 2
    (Classes.multiplicity man f ~bound:[| 0; 1 |])

let test_classes_mux_high () =
  let man = Bdd.new_man () in
  (* f = mux(s; a, b) with bound {a,b}: cofactors s, !s?... enumerate:
     f = s?a:b; restrict a,b: (0,0)->0, (0,1)->!s, (1,0)->s, (1,1)->1:
     four distinct cofactors *)
  let s = Bdd.var man 0 and a = Bdd.var man 1 and b = Bdd.var man 2 in
  let f = Bdd.ite man s a b in
  Alcotest.(check int) "mux mu=4" 4 (Classes.multiplicity man f ~bound:[| 1; 2 |])

let test_classes_constant () =
  let man = Bdd.new_man () in
  Alcotest.(check int) "const mu=1" 1
    (Classes.multiplicity man (Bdd.bdd_true man) ~bound:[| 0; 1 |])

(* brute-force multiplicity via truth tables *)
let brute_multiplicity tt bound =
  let k = Truthtable.arity tt in
  let free = List.filter (fun v -> not (Array.mem v bound)) (List.init k Fun.id) in
  let cof_signature m =
    (* evaluate f on all free assignments with bound fixed by m *)
    List.init (1 lsl List.length free) (fun fm ->
        let assignment = ref 0 in
        Array.iteri
          (fun j v -> if m land (1 lsl j) <> 0 then assignment := !assignment lor (1 lsl v))
          bound;
        List.iteri
          (fun j v -> if fm land (1 lsl j) <> 0 then assignment := !assignment lor (1 lsl v))
          free;
        Truthtable.eval_bits tt !assignment)
  in
  let sigs = List.init (1 lsl Array.length bound) cof_signature in
  List.length (List.sort_uniq compare sigs)

let qcheck_classes =
  let open QCheck in
  let gen =
    Gen.(
      let* tt = Gen.map (fun b -> Truthtable.create 5 b) Gen.int64 in
      let* bsize = int_range 1 3 in
      let* shuffled = Gen.shuffle_l [ 0; 1; 2; 3; 4 ] in
      let bound = Array.of_list (List.filteri (fun i _ -> i < bsize) shuffled) in
      return (tt, bound))
  in
  let print (tt, bound) =
    Printf.sprintf "%s bound=[%s]" (Truthtable.to_string tt)
      (String.concat "," (Array.to_list (Array.map string_of_int bound)))
  in
  [
    Test.make ~name:"multiplicity matches brute force" ~count:300
      (make ~print gen)
      (fun (tt, bound) ->
        let man = Bdd.new_man () in
        let f = mk_f_bdd man tt [| 0; 1; 2; 3; 4 |] in
        Classes.multiplicity man f ~bound = brute_multiplicity tt bound);
  ]

(* The bound-set search's table verdict against the class-table oracle:
   a random function over up to 10 variables (some constant, some
   ignoring part of the pool, some an AND of functions of disjoint
   variable blocks so that large bound sets pass), a random pool of up
   to 9 of them in random order, and every bound set of 2..6 pool
   variables at µ ∈ {2, 4}, the oracle's bound array in shuffled
   order. *)
let qcheck_table_verdict =
  let open QCheck in
  let gen =
    Gen.(
      let* nvars = int_range 2 10 in
      (* kind 0 and 1: constant; 2: ignores its top variables; 3: AND
         of two blocks; otherwise a random function *)
      let* kind = int_range 0 5 in
      let* bits = list_repeat (1 lsl nvars) bool in
      let bits =
        match kind with
        | 0 -> List.map (fun _ -> false) bits
        | 1 -> List.map (fun _ -> true) bits
        | _ -> bits
      in
      (* the function ignores its top [drop] variables *)
      let* drop = if kind = 2 then int_range 1 (nvars - 1) else return 0 in
      (* kind 3 splits the variables at [split] into two blocks *)
      let* split = if kind = 3 then int_range 1 (nvars - 1) else return 0 in
      let* perm = shuffle_l (List.init nvars Fun.id) in
      let* psize = int_range 2 (min 9 nvars) in
      let pool = Array.of_list (List.filteri (fun i _ -> i < psize) perm) in
      let* seed = int in
      return (nvars, Array.of_list bits, drop, split, pool, seed))
  in
  let print (nvars, _, drop, split, pool, seed) =
    Printf.sprintf "nvars=%d drop=%d split=%d pool=[%s] seed=%d" nvars drop
      split
      (String.concat "," (Array.to_list (Array.map string_of_int pool)))
      seed
  in
  [
    Test.make ~name:"table verdict matches class-table multiplicity"
      ~count:120 (make ~print gen)
      (fun (nvars, bits, drop, split, pool, seed) ->
        let man = Bdd.new_man () in
        let live = nvars - drop in
        (* g(low block) AND h(high block), both read from [bits] *)
        let lo = (1 lsl split) - 1 in
        let value m =
          if split = 0 then bits.(m) else bits.(m land lo) && bits.(m lor lo)
        in
        (* sum of minterms over the [live] lowest variables *)
        let f = ref (Bdd.bdd_false man) in
        for m = 0 to (1 lsl live) - 1 do
          if value m then begin
            let t = ref (Bdd.bdd_true man) in
            for v = 0 to live - 1 do
              let x = Bdd.var man v in
              let lit = if m land (1 lsl v) <> 0 then x else Bdd.neg man x in
              t := Bdd.and_ man !t lit
            done;
            f := Bdd.or_ man !f !t
          end
        done;
        let f = !f in
        let table = Bdd.cofactors man f pool in
        let rng = Random.State.make [| seed |] in
        let p = Array.length pool in
        let ok = ref true in
        for mask = 1 to (1 lsl p) - 1 do
          let members =
            List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init p Fun.id)
          in
          let size = List.length members in
          if size >= 2 && size <= 6 then begin
            let bound =
              Array.of_list
                (Gen.shuffle_l (List.map (fun j -> pool.(j)) members) rng)
            in
            let mu = Classes.multiplicity man f ~bound in
            List.iter
              (fun max_mu ->
                if Classes.at_most table ~bound:mask ~mu:max_mu <> (mu <= max_mu)
                then ok := false)
              [ 2; 4 ]
          end
        done;
        !ok);
  ]

(* The bbara TurboSYN flow decides exactly the committed baseline's
   bound-set trials (BENCH_stats_baseline.json).  The stats gate only
   fails on a rise beyond its slack, so a search that decided a
   different set of trials could pass it; this pins the sequence.
   The counts follow the ratio search's probe sequence: the label runs
   at phi = 1, 6, 2, 47/24 and the final run at 2, sharing one resyn
   cache and cut memo.  The earlier 369 / 178 / 13 744 came from the
   same runs plus a probe at 3/2, which the search no longer makes;
   replaying both sequences through [Label_engine.run] gives both
   triples, so the decomposition layer itself did not move. *)
let test_bbara_trial_sequence () =
  let nl = Workloads.Suite.build (Option.get (Workloads.Suite.find "bbara")) in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    (fun () ->
      ignore
        (Turbosyn.Synth.run
           ~options:(Turbosyn.Synth.default_options ~k:5 ())
           `Turbosyn nl);
      List.iter
        (fun (name, want) ->
          Alcotest.(check (option int)) name (Some want) (Obs.Counter.find name))
        [
          ("decomp.calls", 318);
          ("decomp.successes", 153);
          ("decomp.bound_set_trials", 11846);
        ])

(* --- decomposition --- *)

let check_tree_correct man f vars tree n_inputs =
  (* exhaustive evaluation over all input assignments *)
  let ok = ref true in
  for m = 0 to (1 lsl n_inputs) - 1 do
    let env_input i = m land (1 lsl i) <> 0 in
    let env_var v =
      (* find input index of var v *)
      let idx = ref (-1) in
      Array.iteri (fun i x -> if x = v then idx := i) vars;
      !idx >= 0 && env_input !idx
    in
    if Decompose.eval_tree tree env_input <> Bdd.eval man f env_var then ok := false
  done;
  !ok

let rec check_k_feasible k = function
  | Decompose.Input _ -> true
  | Decompose.Lut (tt, fanins) ->
      Truthtable.arity tt <= k
      && Array.length fanins = Truthtable.arity tt
      && Array.for_all (check_k_feasible k) fanins

let test_decompose_xor8 () =
  let man = Bdd.new_man () in
  let n = 8 in
  let vars = Array.init n Fun.id in
  let f = ref (Bdd.bdd_false man) in
  Array.iter (fun v -> f := Bdd.xor man !f (Bdd.var man v)) vars;
  let arrivals = Array.make n Rat.zero in
  match Decompose.decompose man ~f:!f ~vars ~arrivals ~k:4 with
  | None -> Alcotest.fail "xor8 must decompose"
  | Some r ->
      Alcotest.(check bool) "correct" true (check_tree_correct man !f vars r.Decompose.tree n);
      Alcotest.(check bool) "k-feasible" true (check_k_feasible 4 r.Decompose.tree);
      (* 8-input xor with 4-luts: 3 luts at levels (1,1),2 -> root level 2 *)
      Alcotest.(check bool) "level at most 2" true Rat.(r.Decompose.level <= of_int 2)

let test_decompose_and10 () =
  let man = Bdd.new_man () in
  let n = 10 in
  let vars = Array.init n Fun.id in
  let f = ref (Bdd.bdd_true man) in
  Array.iter (fun v -> f := Bdd.and_ man !f (Bdd.var man v)) vars;
  let arrivals = Array.make n Rat.zero in
  match Decompose.decompose man ~f:!f ~vars ~arrivals ~k:5 with
  | None -> Alcotest.fail "and10 must decompose"
  | Some r ->
      Alcotest.(check bool) "correct" true (check_tree_correct man !f vars r.Decompose.tree n);
      Alcotest.(check bool) "k-feasible" true (check_k_feasible 5 r.Decompose.tree)

let test_decompose_respects_arrivals () =
  (* 6-input xor, k=4; inputs 4,5 arrive late: the bound set should use the
     early inputs so the root level is late_arrival + 1 *)
  let man = Bdd.new_man () in
  let n = 6 in
  let vars = Array.init n Fun.id in
  let f = ref (Bdd.bdd_false man) in
  Array.iter (fun v -> f := Bdd.xor man !f (Bdd.var man v)) vars;
  let arrivals = Array.init n (fun i -> if i >= 4 then Rat.of_int 5 else Rat.zero) in
  match Decompose.decompose man ~f:!f ~vars ~arrivals ~k:4 with
  | None -> Alcotest.fail "must decompose"
  | Some r ->
      Alcotest.(check bool) "correct" true (check_tree_correct man !f vars r.Decompose.tree n);
      (* extracting g(x0..x3) at level 1, root lut (g,x4,x5) at level 6 *)
      Alcotest.(check string) "level 6" "6" (Rat.to_string r.Decompose.level)

let test_decompose_already_small () =
  let man = Bdd.new_man () in
  let vars = [| 0; 1; 2 |] in
  let tt = Truthtable.xor_all 3 in
  let f = mk_f_bdd man tt vars in
  let arrivals = Array.make 3 Rat.zero in
  match Decompose.decompose man ~f ~vars ~arrivals ~k:4 with
  | None -> Alcotest.fail "small function trivially decomposes"
  | Some r ->
      Alcotest.(check int) "one lut" 1 r.Decompose.luts;
      Alcotest.(check string) "level 1" "1" (Rat.to_string r.Decompose.level)

let test_decompose_projection () =
  let man = Bdd.new_man () in
  let vars = [| 0; 1 |] in
  let f = Bdd.var man 1 in
  let arrivals = [| Rat.zero; Rat.of_int 3 |] in
  match Decompose.decompose man ~f ~vars ~arrivals ~k:4 with
  | None -> Alcotest.fail "projection decomposes"
  | Some r ->
      Alcotest.(check int) "no luts" 0 r.Decompose.luts;
      Alcotest.(check string) "level is arrival" "3" (Rat.to_string r.Decompose.level)

let test_decompose_constant () =
  let man = Bdd.new_man () in
  let vars = [| 0; 1 |] in
  let arrivals = Array.make 2 Rat.zero in
  match Decompose.decompose man ~f:(Bdd.bdd_true man) ~vars ~arrivals ~k:4 with
  | None -> Alcotest.fail "constant decomposes"
  | Some r ->
      Alcotest.(check bool) "constant lut" true
        (match r.Decompose.tree with
        | Decompose.Lut (tt, [||]) -> Truthtable.is_const tt = Some true
        | _ -> false)

let test_decompose_stuck () =
  (* A function chosen so that no small bound set has mu <= 2: a random
     dense 7-input function (almost surely undecomposable); we verify the
     engine reports None rather than producing an invalid tree. *)
  let rng = Rng.create 4242 in
  let man = Bdd.new_man () in
  let n = 7 in
  let vars = Array.init n Fun.id in
  let arrivals = Array.make n Rat.zero in
  let found_none = ref false in
  for _ = 1 to 10 do
    (* random function over 7 vars via random 64-bit chunks *)
    let f = ref (Bdd.bdd_false man) in
    for m = 0 to 127 do
      if Rng.bool rng then begin
        let minterm = ref (Bdd.bdd_true man) in
        for j = 0 to n - 1 do
          let v = Bdd.var man j in
          let lit = if m land (1 lsl j) <> 0 then v else Bdd.neg man v in
          minterm := Bdd.and_ man !minterm lit
        done;
        f := Bdd.or_ man !f !minterm
      end
    done;
    match Decompose.decompose ~exhaustive:true man ~f:!f ~vars ~arrivals ~k:4 with
    | None -> found_none := true
    | Some r ->
        Alcotest.(check bool) "if it decomposes, it is correct" true
          (check_tree_correct man !f vars r.Decompose.tree n
          && check_k_feasible 4 r.Decompose.tree)
  done;
  Alcotest.(check bool) "random dense functions mostly stuck" true !found_none

(* f = h(count(x0,x1,x2), x3, x4) where h distinguishes all four counts:
   column multiplicity 4 for the natural bound set, and no 2-class bound
   set exists, so single-output decomposition is stuck while two-wire
   (multi-output) extraction succeeds. *)
let stuck_but_mu4 man =
  let x = Array.init 5 (fun i -> Bdd.var man i) in
  (* count bits of x0..x2 as (ge1, ge2, eq3) helpers *)
  let pairs =
    [ Bdd.and_ man x.(0) x.(1); Bdd.and_ man x.(0) x.(2); Bdd.and_ man x.(1) x.(2) ]
  in
  let ge1 = Bdd.or_ man x.(0) (Bdd.or_ man x.(1) x.(2)) in
  let ge2 = List.fold_left (Bdd.or_ man) (Bdd.bdd_false man) pairs in
  let eq3 = Bdd.and_ man x.(0) (Bdd.and_ man x.(1) x.(2)) in
  let eq0 = Bdd.neg man ge1 in
  let eq1 = Bdd.and_ man ge1 (Bdd.neg man ge2) in
  let eq2 = Bdd.and_ man ge2 (Bdd.neg man eq3) in
  let y1 = x.(3) and y2 = x.(4) in
  let case0 = Bdd.and_ man y1 y2 in
  let case1 = Bdd.or_ man y1 y2 in
  let case2 = Bdd.xor man y1 y2 in
  let case3 = Bdd.neg man y1 in
  List.fold_left (Bdd.or_ man) (Bdd.bdd_false man)
    [
      Bdd.and_ man eq0 case0;
      Bdd.and_ man eq1 case1;
      Bdd.and_ man eq2 case2;
      Bdd.and_ man eq3 case3;
    ]

let test_decompose_multi_output () =
  let man = Bdd.new_man () in
  let f = stuck_but_mu4 man in
  let vars = Array.init 5 Fun.id in
  let arrivals = Array.make 5 Rat.zero in
  (* single-output (even exhaustive) is stuck at k=3 *)
  (match Decompose.decompose ~exhaustive:true man ~f ~vars ~arrivals ~k:3 with
  | None -> ()
  | Some r ->
      (* if some bound set slipped through, the tree must still be valid *)
      Alcotest.(check bool) "valid if found" true
        (check_tree_correct man f vars r.Decompose.tree 5));
  (* two-wire extraction succeeds *)
  match
    Decompose.decompose ~exhaustive:true ~multi:true man ~f ~vars ~arrivals
      ~k:3
  with
  | None -> Alcotest.fail "multi-output decomposition must succeed"
  | Some r ->
      Alcotest.(check bool) "correct" true
        (check_tree_correct man f vars r.Decompose.tree 5);
      Alcotest.(check bool) "k-feasible" true (check_k_feasible 3 r.Decompose.tree)

(* The tabulated bound-set candidates equal an enumeration done on the
   spot: prefixes [0..s-1] for s = k down to 2, then under [exhaustive]
   the first 64 of the size-k and size-(k-1) subsets of the pool, each
   size in lexicographic order (here: every bitmask of that popcount,
   listed and sorted). *)
let test_candidate_table () =
  let subsets pool s =
    List.sort compare
      (List.filter_map
         (fun mask ->
           let l = List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init pool Fun.id) in
           if List.length l = s then Some l else None)
         (List.init (1 lsl pool) Fun.id))
  in
  for k = 2 to 6 do
    for pool = 0 to k + 3 do
      List.iter
        (fun exhaustive ->
          let prefixes = List.init (k - 1) (fun i -> List.init (k - i) Fun.id) in
          let extra =
            if not exhaustive then []
            else
              let all =
                subsets pool k @ if k - 1 >= 2 then subsets pool (k - 1) else []
              in
              List.filteri (fun i _ -> i < 64) all
          in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "k=%d pool=%d exhaustive=%b" k pool exhaustive)
            (prefixes @ extra)
            (Decompose.bound_set_candidates ~exhaustive ~pool ~k))
        [ false; true ]
    done
  done;
  Alcotest.check_raises "pool beyond k+3"
    (Invalid_argument "Decompose.bound_set_candidates")
    (fun () -> ignore (Decompose.bound_set_candidates ~exhaustive:true ~pool:9 ~k:5))

let qcheck_decompose =
  let open QCheck in
  (* structured decomposable functions: h(g1(x0..x2), g2(x3..x5), x6) *)
  let gen =
    Gen.(
      let* h = Gen.map (fun b -> Truthtable.create 3 b) Gen.int64 in
      let* g1 = Gen.map (fun b -> Truthtable.create 3 b) Gen.int64 in
      let* g2 = Gen.map (fun b -> Truthtable.create 3 b) Gen.int64 in
      return (h, g1, g2))
  in
  let print (h, g1, g2) =
    Printf.sprintf "h=%s g1=%s g2=%s" (Truthtable.to_string h)
      (Truthtable.to_string g1) (Truthtable.to_string g2)
  in
  [
    Test.make ~name:"decomposed trees are correct and k-feasible" ~count:150
      (make ~print gen)
      (fun (h, g1, g2) ->
        let man = Bdd.new_man () in
        let n = 7 in
        let vars = Array.init n Fun.id in
        let b1 = Bdd.of_truthtable man g1 [| 0; 1; 2 |] in
        let b2 = Bdd.of_truthtable man g2 [| 3; 4; 5 |] in
        let f =
          Bdd.apply_truthtable man h [| b1; b2; Bdd.var man 6 |]
        in
        let arrivals = Array.make n Rat.zero in
        match Decompose.decompose ~exhaustive:true man ~f ~vars ~arrivals ~k:4 with
        | None ->
            (* acceptable only if f has > 4 support vars and really resists;
               with this structure mu(bound={0,1,2}) <= 2 only if g1 feeds h
               as one wire — which it does — but the heuristic may pick other
               bound sets. Accept None only when f depends on > 4 vars and
               no earliest-prefix works; rather than re-verify, require
               decomposition whenever support <= 4 *)
            List.length (Bdd.support man f) > 4
        | Some r ->
            check_tree_correct man f vars r.Decompose.tree n
            && check_k_feasible 4 r.Decompose.tree);
  ]

let () =
  Alcotest.run "decomp"
    [
      ( "classes",
        [
          Alcotest.test_case "xor" `Quick test_classes_xor;
          Alcotest.test_case "and" `Quick test_classes_and;
          Alcotest.test_case "mux" `Quick test_classes_mux_high;
          Alcotest.test_case "constant" `Quick test_classes_constant;
        ] );
      ( "classes-props",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_classes @ qcheck_table_verdict) );
      ( "decompose",
        [
          Alcotest.test_case "xor8" `Quick test_decompose_xor8;
          Alcotest.test_case "and10" `Quick test_decompose_and10;
          Alcotest.test_case "arrivals" `Quick test_decompose_respects_arrivals;
          Alcotest.test_case "already small" `Quick test_decompose_already_small;
          Alcotest.test_case "projection" `Quick test_decompose_projection;
          Alcotest.test_case "constant" `Quick test_decompose_constant;
          Alcotest.test_case "stuck" `Quick test_decompose_stuck;
          Alcotest.test_case "multi-output" `Quick test_decompose_multi_output;
          Alcotest.test_case "bbara trial sequence" `Quick
            test_bbara_trial_sequence;
          Alcotest.test_case "candidate table" `Quick test_candidate_table;
        ] );
      ("decompose-props", List.map QCheck_alcotest.to_alcotest qcheck_decompose);
    ]
