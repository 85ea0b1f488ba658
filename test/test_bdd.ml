(* Tests for the BDD library, including cross-checks against truth tables. *)

open Logic

let test_terminals () =
  let m = Bdd.new_man () in
  Alcotest.(check bool) "true is true" true (Bdd.is_true m (Bdd.bdd_true m));
  Alcotest.(check bool) "false is false" true (Bdd.is_false m (Bdd.bdd_false m));
  Alcotest.(check bool) "distinct" false
    (Bdd.equal (Bdd.bdd_true m) (Bdd.bdd_false m))

let test_var_eval () =
  let m = Bdd.new_man () in
  let x = Bdd.var m 0 and y = Bdd.var m 3 in
  Alcotest.(check bool) "x under x=1" true (Bdd.eval m x (fun i -> i = 0));
  Alcotest.(check bool) "x under x=0" false (Bdd.eval m x (fun _ -> false));
  Alcotest.(check bool) "y under y=1" true (Bdd.eval m y (fun i -> i = 3));
  Alcotest.(check int) "nvars grows" 4 (Bdd.nvars m)

let test_hash_consing () =
  let m = Bdd.new_man () in
  let a = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.and_ m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "and commutes to same node" true (Bdd.equal a b);
  let c = Bdd.neg m (Bdd.or_ m (Bdd.neg m (Bdd.var m 0)) (Bdd.neg m (Bdd.var m 1))) in
  Alcotest.(check bool) "demorgan same node" true (Bdd.equal a c)

let test_ops_vs_truthtable () =
  (* exhaustive check of every operator on every pair of 3-var functions
     drawn from a random sample *)
  let rng = Prelude.Rng.create 77 in
  let m = Bdd.new_man () in
  let vars = [| 0; 1; 2 |] in
  for _ = 1 to 60 do
    let ta = Truthtable.random rng 3 and tb = Truthtable.random rng 3 in
    let a = Bdd.of_truthtable m ta vars and b = Bdd.of_truthtable m tb vars in
    let pairs =
      [
        ("and", Truthtable.and_ ta tb, Bdd.and_ m a b);
        ("or", Truthtable.or_ ta tb, Bdd.or_ m a b);
        ("xor", Truthtable.xor ta tb, Bdd.xor m a b);
        ("xnor", Truthtable.xnor ta tb, Bdd.xnor m a b);
        ("imp", Truthtable.or_ (Truthtable.not_ ta) tb, Bdd.imp m a b);
        ("neg", Truthtable.not_ ta, Bdd.neg m a);
      ]
    in
    List.iter
      (fun (name, expect_tt, got) ->
        let got_tt = Bdd.to_truthtable m got vars in
        Alcotest.(check bool) name true (Truthtable.equal expect_tt got_tt))
      pairs
  done

let test_roundtrip () =
  let rng = Prelude.Rng.create 123 in
  let m = Bdd.new_man () in
  for k = 0 to 6 do
    let vars = Array.init k Fun.id in
    for _ = 1 to 30 do
      let t = Truthtable.random rng k in
      let f = Bdd.of_truthtable m t vars in
      let t' = Bdd.to_truthtable m f vars in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip k=%d" k)
        true (Truthtable.equal t t')
    done
  done

let test_roundtrip_scrambled_vars () =
  let rng = Prelude.Rng.create 9 in
  let m = Bdd.new_man () in
  let vars = [| 5; 2; 9 |] in
  for _ = 1 to 30 do
    let t = Truthtable.random rng 3 in
    let f = Bdd.of_truthtable m t vars in
    let t' = Bdd.to_truthtable m f vars in
    Alcotest.(check bool) "roundtrip scrambled" true (Truthtable.equal t t')
  done

let test_restrict () =
  let m = Bdd.new_man () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.ite m x y z in
  Alcotest.(check bool) "restrict x=1 gives y" true
    (Bdd.equal y (Bdd.restrict m f 0 true));
  Alcotest.(check bool) "restrict x=0 gives z" true
    (Bdd.equal z (Bdd.restrict m f 0 false));
  let g = Bdd.restrict_many m f [ (0, true); (1, false) ] in
  Alcotest.(check bool) "restrict many" true (Bdd.is_false m g)

let test_compose () =
  let m = Bdd.new_man () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  (* f = x AND y; compose y := (y OR z) *)
  let f = Bdd.and_ m x y in
  let g = Bdd.compose m f 1 (Bdd.or_ m y z) in
  let expect = Bdd.and_ m x (Bdd.or_ m y z) in
  Alcotest.(check bool) "compose" true (Bdd.equal g expect);
  (* composing a variable below the substituted one *)
  let h = Bdd.and_ m y z in
  let h' = Bdd.compose m h 2 x in
  Alcotest.(check bool) "compose lower var" true
    (Bdd.equal h' (Bdd.and_ m y x))

let test_support () =
  let m = Bdd.new_man () in
  let f =
    Bdd.or_ m
      (Bdd.and_ m (Bdd.var m 1) (Bdd.var m 4))
      (Bdd.and_ m (Bdd.var m 1) (Bdd.neg m (Bdd.var m 4)))
  in
  (* f collapses to var 1 *)
  Alcotest.(check (list int)) "support collapses" [ 1 ] (Bdd.support m f);
  let g = Bdd.xor m (Bdd.var m 0) (Bdd.var m 5) in
  Alcotest.(check (list int)) "xor support" [ 0; 5 ] (Bdd.support m g)

let test_sat_count () =
  let m = Bdd.new_man () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check int) "and" 1 (Bdd.sat_count m (Bdd.and_ m x y) 2);
  Alcotest.(check int) "or" 3 (Bdd.sat_count m (Bdd.or_ m x y) 2);
  Alcotest.(check int) "xor over 3 vars" 4 (Bdd.sat_count m (Bdd.xor m x y) 3);
  Alcotest.(check int) "true" 8 (Bdd.sat_count m (Bdd.bdd_true m) 3);
  Alcotest.(check int) "false" 0 (Bdd.sat_count m (Bdd.bdd_false m) 3)

let test_apply_truthtable () =
  let rng = Prelude.Rng.create 31 in
  let m = Bdd.new_man () in
  let vars = [| 0; 1; 2; 3 |] in
  for _ = 1 to 30 do
    (* random 2-level structure: top gate over three leaf functions *)
    let top = Truthtable.random rng 3 in
    let leaves = Array.init 3 (fun _ -> Truthtable.random rng 4) in
    let leaf_bdds = Array.map (fun t -> Bdd.of_truthtable m t vars) leaves in
    let composed = Bdd.apply_truthtable m top leaf_bdds in
    (* check by evaluation on all 16 assignments *)
    for a = 0 to 15 do
      let env i = a land (1 lsl i) <> 0 in
      let leaf_vals = Array.map (fun t -> Truthtable.eval_bits t a) leaves in
      let expect = Truthtable.eval top leaf_vals in
      Alcotest.(check bool) "apply_truthtable" expect (Bdd.eval m composed env)
    done
  done

let test_size () =
  let m = Bdd.new_man () in
  Alcotest.(check int) "terminal size" 1 (Bdd.size m (Bdd.bdd_true m));
  let x = Bdd.var m 0 in
  Alcotest.(check int) "var size" 3 (Bdd.size m x)

let test_large_xor_is_compact () =
  (* xor of n variables has exactly 2n+2 nodes: BDDs stay polynomial where
     truth tables would explode *)
  let m = Bdd.new_man () in
  let n = 40 in
  let f = ref (Bdd.bdd_false m) in
  for i = 0 to n - 1 do
    f := Bdd.xor m !f (Bdd.var m i)
  done;
  Alcotest.(check int) "xor40 compact" ((2 * n) + 1) (Bdd.size m !f)

let test_deep_cofactors () =
  (* a random 12-variable function has about a thousand nodes, and
     restricting its four deepest variables walks most of the graph at
     every node of the restriction tree, so the memo [cofactors]
     shares grows from its initial 256 slots several times *)
  let n = 12 and bound = [| 8; 9; 10; 11 |] in
  let rng = Prelude.Rng.create 2024 in
  let bits = Array.init (1 lsl n) (fun _ -> Prelude.Rng.bool rng) in
  let m = Bdd.new_man () in
  (* Shannon expansion over variable [lvl] of the assignments that agree
     with [a] on the variables below it *)
  let rec build lvl a =
    if lvl = n then Bdd.of_bool m bits.(a)
    else
      let lo = build (lvl + 1) a in
      Bdd.ite m (Bdd.var m lvl) (build (lvl + 1) (a lor (1 lsl lvl))) lo
  in
  let f = build 0 0 in
  Alcotest.(check bool) "large graph" true (Bdd.size m f > 500);
  Array.iteri
    (fun mask c ->
      for a = 0 to 255 do
        let full = a lor (mask lsl 8) in
        if Bdd.eval m c (fun v -> full land (1 lsl v) <> 0) <> bits.(full) then
          Alcotest.failf "cofactor %d differs at assignment %d" mask a
      done)
    (Bdd.cofactors m f bound)

let qcheck_props =
  let open QCheck in
  let gen_tt k =
    make ~print:Truthtable.to_string
      (Gen.map (fun b -> Truthtable.create k b) Gen.int64)
  in
  [
    Test.make ~name:"bdd equality is functional equality" ~count:200
      (pair (gen_tt 4) (gen_tt 4)) (fun (a, b) ->
        let m = Bdd.new_man () in
        let vars = [| 0; 1; 2; 3 |] in
        let fa = Bdd.of_truthtable m a vars in
        let fb = Bdd.of_truthtable m b vars in
        Bdd.equal fa fb = Truthtable.equal a b);
    Test.make ~name:"sat_count matches count_ones" ~count:200 (gen_tt 5)
      (fun t ->
        let m = Bdd.new_man () in
        let f = Bdd.of_truthtable m t [| 0; 1; 2; 3; 4 |] in
        Bdd.sat_count m f 5 = Truthtable.count_ones t);
    Test.make ~name:"shannon via restrict" ~count:200 (gen_tt 4) (fun t ->
        let m = Bdd.new_man () in
        let f = Bdd.of_truthtable m t [| 0; 1; 2; 3 |] in
        let x = Bdd.var m 2 in
        let hi = Bdd.restrict m f 2 true and lo = Bdd.restrict m f 2 false in
        Bdd.equal f (Bdd.ite m x hi lo));
    Test.make ~name:"support matches truthtable" ~count:200 (gen_tt 5)
      (fun t ->
        let m = Bdd.new_man () in
        let f = Bdd.of_truthtable m t [| 0; 1; 2; 3; 4 |] in
        Bdd.support m f = Truthtable.support t);
  ]

(* Export/import: a random function of up to 6 inputs, of which only
   the first [live] matter (so inputs outside the support are covered),
   on scrambled variable indices in a manager that also saw a variable
   above them all.  Imported into a fresh manager it must have the same
   truth table, the same size and the same variable count; imported back
   into its own manager it must be the very node it was exported from. *)
let test_export_import =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 6 >>= fun k ->
      int_range 0 k >>= fun live ->
      map2
        (fun bits seed -> (k, live, bits, seed))
        int64 (int_bound 1_000_000))
  in
  Test.make ~name:"import of export keeps truth table and size" ~count:300
    (make
       ~print:(fun (k, live, bits, seed) ->
         Printf.sprintf "k=%d live=%d bits=%Ld seed=%d" k live bits seed)
       gen)
    (fun (k, live, bits, seed) ->
      let lmask = (1 lsl live) - 1 in
      let b = ref 0L in
      for a = 0 to (1 lsl k) - 1 do
        if Int64.logand (Int64.shift_right_logical bits (a land lmask)) 1L = 1L
        then b := Int64.logor !b (Int64.shift_left 1L a)
      done;
      let tt = Truthtable.create k !b in
      let rng = Prelude.Rng.create seed in
      let vars = Array.init 8 Fun.id in
      for i = 7 downto 1 do
        let j = Prelude.Rng.int rng (i + 1) in
        let t = vars.(i) in
        vars.(i) <- vars.(j);
        vars.(j) <- t
      done;
      let vars = Array.sub vars 0 k in
      let m = Bdd.new_man () in
      ignore (Bdd.var m 9);
      let f = Bdd.of_truthtable m tt vars in
      let x = Bdd.export m f in
      let m' = Bdd.new_man () in
      let g = Bdd.import m' x in
      Truthtable.equal (Bdd.to_truthtable m' g vars) tt
      && Bdd.size m' g = Bdd.size m f
      && Bdd.nvars m' = Bdd.nvars m
      && Bdd.equal (Bdd.import m x) f)

(* Random formulas over at most 10 variables, built through the manager
   and checked against direct evaluation on all 2^10 assignments.  One
   manager serves a whole batch of formulas, so its unique table and ite
   cache (both start at 64 slots) grow several times within a case, and
   the larger restriction memos outgrow their initial size too. *)
type formula =
  | V of int
  | C of bool
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Xor of formula * formula
  | Ite of formula * formula * formula

let nv = 10

let rec eval_f env = function
  | V i -> env i
  | C b -> b
  | Not f -> not (eval_f env f)
  | And (a, b) -> eval_f env a && eval_f env b
  | Or (a, b) -> eval_f env a || eval_f env b
  | Xor (a, b) -> eval_f env a <> eval_f env b
  | Ite (f, g, h) -> if eval_f env f then eval_f env g else eval_f env h

let rec build m = function
  | V i -> Bdd.var m i
  | C b -> Bdd.of_bool m b
  | Not f -> Bdd.neg m (build m f)
  | And (a, b) ->
      let a = build m a in
      Bdd.and_ m a (build m b)
  | Or (a, b) ->
      let a = build m a in
      Bdd.or_ m a (build m b)
  | Xor (a, b) ->
      let a = build m a in
      Bdd.xor m a (build m b)
  | Ite (f, g, h) ->
      let f = build m f in
      let g = build m g in
      Bdd.ite m f g (build m h)

(* an equivalent formula of a different shape *)
let rec rewrite = function
  | (V _ | C _) as f -> Not (Not f)
  | Not f -> Not (rewrite f)
  | And (a, b) -> Not (Or (Not (rewrite b), Not (rewrite a)))
  | Or (a, b) -> Ite (rewrite a, C true, rewrite b)
  | Xor (a, b) -> Xor (rewrite b, rewrite a)
  | Ite (f, g, h) -> Or (And (rewrite f, rewrite g), And (Not (rewrite f), rewrite h))

let env_of a i = a land (1 lsl i) <> 0
let vector f = Array.init (1 lsl nv) (fun a -> f (env_of a))

let gen_formula =
  QCheck.Gen.(
    let leaf =
      oneof [ map (fun i -> V i) (int_bound (nv - 1)); map (fun b -> C b) bool ]
    in
    sized_size (int_range 16 64)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (1, map (fun f -> Not f) (self (n - 1)));
                 (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2)));
                 (2, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
                 ( 2,
                   map3
                     (fun f g h -> Ite (f, g, h))
                     (self (n / 3)) (self (n / 3)) (self (n / 3)) );
               ]))

type batch = {
  fs : formula array;
  var_of : int array;  (** per formula: a variable to restrict/compose *)
  bit_of : bool array;
  bound : int array;  (** up to 4 distinct variables for [cofactors] *)
  pin : int;  (** assignment of variables 6..9 for [to_truthtable] *)
}

let gen_batch =
  QCheck.Gen.(
    let* n = int_range 12 24 in
    let* fs = array_repeat n gen_formula in
    let* var_of = array_repeat n (int_bound (nv - 1)) in
    let* bit_of = array_repeat n bool in
    let* perm = map Array.of_list (shuffle_l (List.init nv Fun.id)) in
    let* b = int_range 1 4 in
    let* pin = int_bound 15 in
    return { fs; var_of; bit_of; bound = Array.sub perm 0 b; pin })

(* the operation sequence a batch drives through a manager; the node
   ids it returns (in order) are what two managers must agree on *)
let run_batch m bt =
  let n = Array.length bt.fs in
  let fb = Array.map (build m) bt.fs in
  let eq = Array.map (fun f -> build m (rewrite f)) bt.fs in
  let restricted = Array.init n (fun j -> Bdd.restrict m fb.(j) bt.var_of.(j) bt.bit_of.(j)) in
  let composed =
    Array.init n (fun j -> Bdd.compose m fb.(j) bt.var_of.(j) fb.((j + 1) mod n))
  in
  let cofs = Array.map (fun f -> Bdd.cofactors m f bt.bound) fb in
  let pinned =
    Array.map
      (fun f ->
        Bdd.restrict_many m f
          (List.init 4 (fun i -> (6 + i, env_of bt.pin i))))
      fb
  in
  (fb, eq, restricted, composed, cofs, pinned)

let test_bdd_formulas =
  QCheck.Test.make ~name:"random formulas agree with direct evaluation"
    ~count:40
    (QCheck.make gen_batch)
    (fun bt ->
      let n = Array.length bt.fs in
      let m = Bdd.new_man () in
      let result = run_batch m bt in
      let fb, eq, restricted, composed, cofs, pinned = result in
      let vec_f = Array.map (fun f -> vector (fun env -> eval_f env f)) bt.fs in
      let vec_b g = vector (Bdd.eval m g) in
      let ok = ref true in
      let check what c =
        if not c then begin
          ok := false;
          QCheck.Test.fail_reportf "%s" what
        end
      in
      for j = 0 to n - 1 do
        let f = bt.fs.(j) and i = bt.var_of.(j) and b = bt.bit_of.(j) in
        check "build (ite/and/or/xor/neg)" (vec_b fb.(j) = vec_f.(j));
        check "rewrite gives the same id" (Bdd.equal eq.(j) fb.(j));
        for j' = 0 to n - 1 do
          check "ids equal iff functions equal"
            (Bdd.equal fb.(j) fb.(j') = (vec_f.(j) = vec_f.(j')))
        done;
        check "restrict"
          (vec_b restricted.(j)
          = vector (fun env -> eval_f (fun v -> if v = i then b else env v) f));
        let g = bt.fs.((j + 1) mod n) in
        check "compose"
          (vec_b composed.(j)
          = vector (fun env ->
                eval_f (fun v -> if v = i then eval_f env g else env v) f));
        Array.iteri
          (fun mask c ->
            let fixed v =
              let rec pos p =
                if p = Array.length bt.bound then None
                else if bt.bound.(p) = v then Some p
                else pos (p + 1)
              in
              pos 0
            in
            check "cofactors"
              (vec_b c
              = vector (fun env ->
                    eval_f
                      (fun v ->
                        match fixed v with
                        | Some p -> mask land (1 lsl p) <> 0
                        | None -> env v)
                      f)))
          cofs.(j);
        let sensitive v =
          Array.exists Fun.id
            (Array.init (1 lsl nv) (fun a ->
                 vec_f.(j).(a) <> vec_f.(j).(a lxor (1 lsl v))))
        in
        check "support"
          (Bdd.support m fb.(j) = List.filter sensitive (List.init nv Fun.id));
        let tt = Bdd.to_truthtable m pinned.(j) [| 0; 1; 2; 3; 4; 5 |] in
        check "to_truthtable"
          (List.for_all
             (fun a ->
               Truthtable.eval_bits tt a
               = eval_f (fun v -> if v < 6 then env_of a v else env_of bt.pin (v - 6)) f)
             (List.init 64 Fun.id))
      done;
      (* the same operation sequence on a second manager assigns the
         same ids and leaves the same node count *)
      let m' = Bdd.new_man () in
      check "same sequence, same ids" (run_batch m' bt = result);
      check "same sequence, same num_nodes" (Bdd.num_nodes m' = Bdd.num_nodes m);
      !ok)

(* Manager reuse: random operation sequences ("epochs"), several per
   case, run one after another on one manager through [Bdd.reset] (or
   [Bdd.lease]) and each on a fresh manager, must give the same node
   ids, node counts and results.  Epoch lengths range from a handful of
   operations to a few hundred, so the reused manager's tables, grown by
   a large epoch, serve small ones, and small epochs are followed by
   ones that grow the tables again. *)
type op =
  | Op_var of int
  | Op_ite of int * int * int  (* operands: pool indices, taken modulo *)
  | Op_restrict of int * int * bool
  | Op_cofactors of int * int array
  | Op_support of int
  | Op_compose of int * int * int
  | Op_export of int  (* export, then import into the same manager *)

type seen =
  | Node of Bdd.t
  | Nodes of Bdd.t array
  | Vars of int list
  | Exported of Bdd.exported * Bdd.t

let reuse_vars = 12

let gen_op =
  QCheck.Gen.(
    let idx = int_bound 1_000_000 and v = int_bound (reuse_vars - 1) in
    let bound =
      let* b = int_range 1 3 in
      map
        (fun l -> Array.of_list (List.filteri (fun j _ -> j < b) l))
        (shuffle_l (List.init reuse_vars Fun.id))
    in
    frequency
      [
        (3, map (fun i -> Op_var i) v);
        (8, map3 (fun a b c -> Op_ite (a, b, c)) idx idx idx);
        (1, map3 (fun a i b -> Op_restrict (a, i, b)) idx v bool);
        (1, map2 (fun a b -> Op_cofactors (a, b)) idx bound);
        (1, map (fun a -> Op_support a) idx);
        (1, map3 (fun a i b -> Op_compose (a, i, b)) idx v idx);
        (1, map (fun a -> Op_export a) idx);
      ])

(* each operation's result and the node count after it *)
let run_ops m ops =
  let pool = Array.make (2 + (8 * List.length ops)) (Bdd.bdd_false m) in
  pool.(1) <- Bdd.bdd_true m;
  let len = ref 2 in
  let push f =
    pool.(!len) <- f;
    incr len;
    f
  in
  let get i = pool.(i mod !len) in
  List.map
    (fun op ->
      let seen =
        match op with
        | Op_var i -> Node (push (Bdd.var m i))
        | Op_ite (a, b, c) -> Node (push (Bdd.ite m (get a) (get b) (get c)))
        | Op_restrict (a, i, b) -> Node (push (Bdd.restrict m (get a) i b))
        | Op_cofactors (a, bound) ->
            Nodes (Array.map push (Bdd.cofactors m (get a) bound))
        | Op_support a -> Vars (Bdd.support m (get a))
        | Op_compose (a, i, b) -> Node (push (Bdd.compose m (get a) i (get b)))
        | Op_export a ->
            let x = Bdd.export m (get a) in
            Exported (x, push (Bdd.import m x))
      in
      (seen, Bdd.num_nodes m))
    ops

let test_reset_reuse =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 2 10)
        (let* n = frequency [ (3, int_range 1 40); (1, int_range 100 400) ] in
         list_repeat n gen_op))
  in
  Test.make ~name:"reset manager matches a fresh one" ~count:60
    (make
       ~print:(fun epochs ->
         String.concat " " (List.map (fun e -> string_of_int (List.length e)) epochs))
       gen)
    (fun epochs ->
      let m = Bdd.new_man () in
      List.for_all
        (fun (e, ops) ->
          let reused =
            if e mod 2 = 0 then (
              Bdd.reset m;
              run_ops m ops)
            else Bdd.lease m (fun () -> run_ops m ops)
          in
          let fresh = Bdd.new_man () in
          reused = run_ops fresh ops && Bdd.nvars m = Bdd.nvars fresh)
        (List.mapi (fun e ops -> (e, ops)) epochs))

let () =
  Alcotest.run "bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "variables" `Quick test_var_eval;
          Alcotest.test_case "hash consing" `Quick test_hash_consing;
          Alcotest.test_case "ops vs truthtable" `Quick test_ops_vs_truthtable;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip scrambled" `Quick
            test_roundtrip_scrambled_vars;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "sat count" `Quick test_sat_count;
          Alcotest.test_case "apply truthtable" `Quick test_apply_truthtable;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "xor40 compact" `Quick test_large_xor_is_compact;
          Alcotest.test_case "deep cofactors" `Quick test_deep_cofactors;
        ] );
      ( "bdd-props",
        List.map QCheck_alcotest.to_alcotest (qcheck_props @ [ test_bdd_formulas; test_export_import; test_reset_reuse ]) );
    ]
