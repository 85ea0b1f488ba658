(* Tests for the circuit library: netlist model, builders, BLIF I/O. *)

open Logic
open Circuit

(* A tiny sequential circuit: x -> g1 -> g2 -> y with a feedback loop
   g2 -> g1 carrying one FF. *)
let feedback_pair () =
  let nl = Netlist.create ~name:"pair" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let g1 = Netlist.reserve_gate ~name:"g1" nl in
  let g2 = Build.xor2 ~name:"g2" nl g1 x in
  Netlist.define_gate nl g1 (Truthtable.and_all 2) [| (x, 0); (g2, 1) |];
  let y = Netlist.add_po ~name:"y" nl ~driver:g2 ~weight:0 in
  (nl, x, g1, g2, y)

let test_build_basic () =
  let nl, x, g1, g2, y = feedback_pair () in
  Alcotest.(check int) "node count" 4 (Netlist.n nl);
  Alcotest.(check bool) "x is pi" true (Netlist.kind nl x = Netlist.Pi);
  Alcotest.(check bool) "g1 is gate" true (Netlist.is_gate nl g1);
  Alcotest.(check bool) "y is po" true (Netlist.kind nl y = Netlist.Po);
  Alcotest.(check int) "delay gate" 1 (Netlist.delay nl g2);
  Alcotest.(check int) "delay pi" 0 (Netlist.delay nl x);
  Alcotest.(check (list int)) "pis" [ x ] (Netlist.pis nl);
  Alcotest.(check (list int)) "pos" [ y ] (Netlist.pos nl);
  Alcotest.(check (list int)) "gates" [ g1; g2 ] (Netlist.gates nl);
  Alcotest.(check (list string)) "no errors" []
    (List.map (Format.asprintf "%a" Netlist.pp_error) (Netlist.validate ~k:5 nl))

let test_names () =
  let nl, x, g1, _, _ = feedback_pair () in
  Alcotest.(check string) "named" "x" (Netlist.node_name nl x);
  Alcotest.(check (option int)) "find" (Some g1) (Netlist.find_by_name nl "g1");
  Alcotest.(check (option int)) "missing" None (Netlist.find_by_name nl "zzz")

let test_fanouts () =
  let nl, x, g1, g2, y = feedback_pair () in
  let fo = Netlist.fanouts nl in
  Alcotest.(check bool) "x feeds both gates" true
    (List.mem g1 fo.(x) && List.mem g2 fo.(x));
  Alcotest.(check (list int)) "g2 feeds g1 and y" [ g1; y ]
    (List.sort compare fo.(g2))

let test_validate_errors () =
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  (* gate with arity mismatch via define on reserved node *)
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Netlist.define_gate: arity mismatch") (fun () ->
      let g = Netlist.reserve_gate nl in
      Netlist.define_gate nl g (Truthtable.and_all 2) [| (x, 0) |]);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Netlist: negative edge weight") (fun () ->
      ignore (Netlist.add_gate nl (Truthtable.var 1 0) [| (x, -1) |]));
  (* combinational loop *)
  let nl2 = Netlist.create () in
  let a = Netlist.reserve_gate nl2 in
  let b = Netlist.add_gate nl2 (Truthtable.var 1 0) [| (a, 0) |] in
  Netlist.define_gate nl2 a (Truthtable.var 1 0) [| (b, 0) |];
  Alcotest.(check bool) "comb loop detected" true
    (List.mem Netlist.Combinational_loop (Netlist.validate nl2));
  (* K-boundedness *)
  let nl3 = Netlist.create () in
  let ps = Array.init 4 (fun _ -> Netlist.add_pi nl3) in
  let g = Netlist.add_gate nl3 (Truthtable.and_all 4) (Array.map (fun p -> (p, 0)) ps) in
  Alcotest.(check bool) "fanin exceeds k=3" true
    (List.mem (Netlist.Fanin_exceeds (g, 3)) (Netlist.validate ~k:3 nl3));
  Alcotest.(check (list string)) "fine with k=4" []
    (List.map (Format.asprintf "%a" Netlist.pp_error) (Netlist.validate ~k:4 nl3))

let test_stats () =
  let nl, _, _, _, _ = feedback_pair () in
  let s = Netlist.stats nl in
  Alcotest.(check int) "gates" 2 s.Netlist.n_gates;
  Alcotest.(check int) "ff (shared max per driver)" 1 s.Netlist.n_ff;
  Alcotest.(check int) "edge weight total" 1 s.Netlist.total_edge_weight;
  Alcotest.(check int) "pi" 1 s.Netlist.n_pi;
  Alcotest.(check int) "po" 1 s.Netlist.n_po;
  Alcotest.(check int) "depth" 2 s.Netlist.comb_depth

let test_ff_sharing () =
  (* one driver consumed at weights 3 and 1: shared chain of 3 FFs *)
  let nl = Netlist.create () in
  let x = Netlist.add_pi nl in
  let g = Build.buf nl x in
  let a = Build.buf ~w:3 nl g in
  let b = Build.buf ~w:1 nl g in
  ignore (Netlist.add_po nl ~driver:a ~weight:0);
  ignore (Netlist.add_po nl ~driver:b ~weight:0);
  let s = Netlist.stats nl in
  Alcotest.(check int) "shared ffs" 3 s.Netlist.n_ff;
  Alcotest.(check int) "edge total" 4 s.Netlist.total_edge_weight

let test_mdr () =
  let nl, _, _, _, _ = feedback_pair () in
  (* loop g1 -> g2 -> g1 has 2 gates and 1 FF: ratio 2 *)
  (match Netlist.mdr_ratio nl with
  | Graphs.Cycle_ratio.Ratio r ->
      Alcotest.(check string) "mdr 2" "2" (Prelude.Rat.to_string r)
  | _ -> Alcotest.fail "expected ratio");
  (* removing the FF creates a combinational loop *)
  let nl2, _, g1, _, _ = feedback_pair () in
  Netlist.set_weight nl2 g1 1 0;
  Alcotest.(check bool) "infinite" true
    (Netlist.mdr_ratio nl2 = Graphs.Cycle_ratio.Infinite)

let test_comb_topo () =
  let nl, x, g1, g2, _ = feedback_pair () in
  let order = Netlist.comb_topo_order nl in
  let pos = Array.make (Netlist.n nl) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "x before g2" true (pos.(x) < pos.(g2));
  Alcotest.(check bool) "g1 before g2" true (pos.(g1) < pos.(g2))

let test_copy_independent () =
  let nl, _, g1, _, _ = feedback_pair () in
  let nl2 = Netlist.copy nl in
  Netlist.set_weight nl2 g1 1 5;
  let w_orig = snd (Netlist.fanins nl g1).(1) in
  let w_copy = snd (Netlist.fanins nl2 g1).(1) in
  Alcotest.(check int) "original untouched" 1 w_orig;
  Alcotest.(check int) "copy changed" 5 w_copy

let test_full_adder () =
  let nl = Netlist.create () in
  let a = Netlist.add_pi nl and b = Netlist.add_pi nl and c = Netlist.add_pi nl in
  let sum, carry = Build.full_adder nl ~a ~b ~cin:c in
  let fs = Netlist.gate_function nl sum and fc = Netlist.gate_function nl carry in
  for m = 0 to 7 do
    let av = m land 1 and bv = (m lsr 1) land 1 and cv = (m lsr 2) land 1 in
    let total = av + bv + cv in
    Alcotest.(check bool) "sum" (total land 1 = 1) (Truthtable.eval_bits fs m);
    Alcotest.(check bool) "carry" (total >= 2) (Truthtable.eval_bits fc m)
  done

(* --- BLIF --- *)

let sample_blif =
  {|# sample sequential circuit
.model sample
.inputs a b
.outputs out
.names a b t   # and gate
11 1
.latch t tq 0
.names tq b out
1- 1
-1 1
.end
|}

let test_blif_parse () =
  match Blif.parse_string sample_blif with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      Alcotest.(check string) "model name" "sample" (Netlist.name nl);
      let s = Netlist.stats nl in
      Alcotest.(check int) "pis" 2 s.Netlist.n_pi;
      Alcotest.(check int) "pos" 1 s.Netlist.n_po;
      Alcotest.(check int) "gates" 2 s.Netlist.n_gates;
      Alcotest.(check int) "ffs" 1 s.Netlist.n_ff;
      (* the latch became weight 1 on the edge t -> out *)
      let out_gate =
        match Netlist.find_by_name nl "out" with
        | Some g -> g
        | None -> Alcotest.fail "no out gate"
      in
      let weights =
        Array.to_list (Array.map snd (Netlist.fanins nl out_gate))
      in
      Alcotest.(check (list int)) "latch weight" [ 1; 0 ] weights

let test_blif_latch_chain () =
  let text =
    {|.model chain
.inputs x
.outputs y
.names x g
1 1
.latch g q1
.latch q1 q2
.latch q2 q3
.names q3 y
1 1
.end
|}
  in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      let y_gate = Option.get (Netlist.find_by_name nl "y") in
      Alcotest.(check int) "chain collapses to weight 3" 3
        (snd (Netlist.fanins nl y_gate).(0))

let test_blif_constants () =
  let text = {|.model k
.inputs x
.outputs c1 c0
.names c1
1
.names c0
.end
|} in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      let c1 = Option.get (Netlist.find_by_name nl "c1") in
      let c0 = Option.get (Netlist.find_by_name nl "c0") in
      Alcotest.(check (option bool)) "const 1" (Some true)
        (Truthtable.is_const (Netlist.gate_function nl c1));
      Alcotest.(check (option bool)) "const 0" (Some false)
        (Truthtable.is_const (Netlist.gate_function nl c0))

let test_blif_offset_cubes () =
  let text = {|.model off
.inputs a b
.outputs y
.names a b y
11 0
.end
|} in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok nl ->
      let y = Option.get (Netlist.find_by_name nl "y") in
      (* OFF-set cube 11 means y = NOT (a AND b) *)
      Alcotest.(check bool) "nand" true
        (Truthtable.equal
           (Netlist.gate_function nl y)
           (Truthtable.not_ (Truthtable.and_all 2)))

let test_blif_errors () =
  let check_err name text =
    match Blif.parse_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected parse error" name
  in
  check_err "undefined signal" ".model m\n.inputs a\n.outputs y\n.names b y\n1 1\n.end\n";
  check_err "double definition"
    ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n1 1\n.end\n";
  check_err "latch cycle"
    ".model m\n.inputs a\n.outputs y\n.latch q2 q1\n.latch q1 q2\n.names q1 y\n1 1\n.end\n";
  check_err "mixed cube polarity"
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
  check_err "unsupported construct" ".model m\n.exdc\n.end\n";
  ()

let test_blif_wide_gate () =
  (* an 8-input cover decomposes into a balanced cube tree; semantics are
     checked by simulation against the cube definition *)
  let text =
    ".model wide\n.inputs a b c d e f g h\n.outputs y\n\
     .names a b c d e f g h y\n\
     11------ 1\n\
     --11--0- 1\n\
     -----111 1\n\
     .end\n"
  in
  let reference m =
    (* the cover: ab | cd!g | fgh, with bit j of m = input j *)
    let bit j = m land (1 lsl j) <> 0 in
    (bit 0 && bit 1)
    || (bit 2 && bit 3 && not (bit 6))
    || (bit 5 && bit 6 && bit 7)
  in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "wide parse failed: %s" e
  | Ok nl ->
      Alcotest.(check (list string)) "k-bounded after decomposition" []
        (List.map (Format.asprintf "%a" Netlist.pp_error) (Netlist.validate ~k:4 nl));
      let sim = Sim.Simulator.create nl in
      for m = 0 to 255 do
        let inputs = Array.init 8 (fun j -> m land (1 lsl j) <> 0) in
        let out = Sim.Simulator.step sim inputs in
        Alcotest.(check bool) (Printf.sprintf "cover on %d" m) (reference m) out.(0)
      done

let test_blif_roundtrip () =
  let nl, _, _, _, _ = feedback_pair () in
  let text = Blif.to_string nl in
  match Blif.parse_string text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok nl2 ->
      Alcotest.(check bool) "roundtrip equal" true (Blif.roundtrip_equal nl nl2);
      (* and a second trip is stable *)
      let text2 = Blif.to_string nl2 in
      (match Blif.parse_string text2 with
      | Error e -> Alcotest.failf "second reparse failed: %s" e
      | Ok nl3 ->
          Alcotest.(check bool) "second roundtrip" true
            (Blif.roundtrip_equal nl2 nl3))

let test_blif_roundtrip_random () =
  (* random small circuits with latches survive write/parse *)
  let rng = Prelude.Rng.create 2024 in
  for iter = 1 to 25 do
    let nl = Netlist.create ~name:(Printf.sprintf "r%d" iter) () in
    let nodes = ref [] in
    for _ = 1 to 3 do
      nodes := Netlist.add_pi nl :: !nodes
    done;
    for _ = 1 to 12 do
      let arr = Array.of_list !nodes in
      let k = 1 + Prelude.Rng.int rng (min 3 (Array.length arr)) in
      let fanins =
        Array.init k (fun _ -> (Prelude.Rng.pick rng arr, Prelude.Rng.int rng 3))
      in
      let f = Truthtable.random rng k in
      nodes := Netlist.add_gate nl f fanins :: !nodes
    done;
    let arr = Array.of_list !nodes in
    for _ = 1 to 2 do
      ignore
        (Netlist.add_po nl ~driver:(Prelude.Rng.pick rng arr)
           ~weight:(Prelude.Rng.int rng 2))
    done;
    match Blif.parse_string (Blif.to_string nl) with
    | Error e -> Alcotest.failf "roundtrip %d failed: %s" iter e
    | Ok nl2 ->
        Alcotest.(check bool)
          (Printf.sprintf "random roundtrip %d" iter)
          true (Blif.roundtrip_equal nl nl2)
  done

let test_blif_name_collision () =
  (* an explicit name equal to another node's auto-generated name must not
     produce a BLIF with two drivers for one signal *)
  let nl = Netlist.create ~name:"clash" () in
  let x = Netlist.add_pi ~name:"x" nl in
  let _anon = Build.not_ nl x in
  (* node id 2 gets auto name "n2"; now name another gate explicitly n1 *)
  let g = Build.not_ ~name:(Printf.sprintf "n%d" 1) nl x in
  ignore (Netlist.add_po ~name:"y" nl ~driver:g ~weight:0);
  match Blif.parse_string (Blif.to_string nl) with
  | Error e -> Alcotest.failf "collision roundtrip failed: %s" e
  | Ok _ -> ()

let test_blif_file_io () =
  let nl, _, _, _, _ = feedback_pair () in
  let path = Filename.temp_file "turbosyn" ".blif" in
  Blif.write_file nl path;
  (match Blif.parse_file path with
  | Error e -> Alcotest.failf "parse_file failed: %s" e
  | Ok nl2 -> Alcotest.(check bool) "file roundtrip" true (Blif.roundtrip_equal nl nl2));
  Sys.remove path;
  match Blif.parse_file "/nonexistent/x.blif" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for missing file"

let test_verilog_structure () =
  let nl, _, _, _, _ = feedback_pair () in
  let v = Verilog.to_string nl in
  Alcotest.(check bool) "module header" true
    (String.length v > 0
    && String.sub v 0 11 = "module pair");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re v 0);
           true
         with Not_found -> false))
    [ "input clk"; "input x"; "output y"; "always @(posedge clk)"; "endmodule" ]

let test_verilog_comb_no_clock () =
  let nl = Netlist.create ~name:"compos" () in
  let a = Netlist.add_pi ~name:"a" nl in
  let g = Build.not_ nl a in
  ignore (Netlist.add_po ~name:"z" nl ~driver:g ~weight:0);
  let v = Verilog.to_string nl in
  Alcotest.(check bool) "no clk port" true
    (try
       ignore (Str.search_forward (Str.regexp_string "clk") v 0);
       false
     with Not_found -> true)

let test_verilog_sanitize () =
  let nl = Netlist.create ~name:"weird-name" () in
  let a = Netlist.add_pi ~name:"in[0]" nl in
  let g = Build.not_ ~name:"g.1" nl a in
  ignore (Netlist.add_po ~name:"out!" nl ~driver:g ~weight:0);
  let v = Verilog.to_string nl in
  Alcotest.(check bool) "sanitized" true
    (try
       ignore (Str.search_forward (Str.regexp_string "in[0]") v 0);
       false
     with Not_found -> true)

(* ---------------------------------------------------------------- *)
(* Canonical digests (Canon): renaming/permutation invariance and    *)
(* structural separation                                             *)
(* ---------------------------------------------------------------- *)

(* A replayable build recipe for a random sequential circuit: node
   index 0..n_pi-1 are PIs, n_pi+j is gate j.  Feedback is allowed
   (gates may reference later gates) through reserve/define. *)
type canon_recipe = {
  rc_n_pi : int;
  rc_gates : (Truthtable.t * (int * int) array) array;
  rc_pos : (int * int) array;
}

let gen_canon_recipe rng =
  let n_pi = 2 + Prelude.Rng.int rng 3 in
  let n_gates = 4 + Prelude.Rng.int rng 8 in
  let n = n_pi + n_gates in
  let gates =
    Array.init n_gates (fun j ->
        let k = 1 + Prelude.Rng.int rng 3 in
        let fanins =
          Array.init k (fun _ ->
              let src = Prelude.Rng.int rng n in
              (* weight-0 back edges would make a combinational loop;
                 keep cycles registered by forcing feedback weights >= 1 *)
              let w =
                if src >= n_pi + j then 1 + Prelude.Rng.int rng 2
                else Prelude.Rng.int rng 3
              in
              (src, w))
        in
        (Truthtable.random rng k, fanins))
  in
  let pos =
    Array.init 2 (fun _ ->
        (Prelude.Rng.int rng n, Prelude.Rng.int rng 2))
  in
  { rc_n_pi = n_pi; rc_gates = gates; rc_pos = pos }

(* Replay a recipe declaring gates in [order] (a permutation of the
   recipe's gate indices), naming every wire through [wire_name]. *)
let build_canon_recipe rc ~order ~wire_name =
  let nl = Netlist.create ~name:"canon" () in
  let n_gates = Array.length rc.rc_gates in
  let pi_ids =
    Array.init rc.rc_n_pi (fun i -> Netlist.add_pi ~name:(wire_name i) nl)
  in
  let gate_ids = Array.make n_gates (-1) in
  Array.iter
    (fun j ->
      gate_ids.(j) <-
        Netlist.reserve_gate ~name:(wire_name (rc.rc_n_pi + j)) nl)
    order;
  let node i =
    if i < rc.rc_n_pi then pi_ids.(i) else gate_ids.(i - rc.rc_n_pi)
  in
  Array.iteri
    (fun j (f, fanins) ->
      Netlist.define_gate nl gate_ids.(j) f
        (Array.map (fun (i, w) -> (node i, w)) fanins))
    rc.rc_gates;
  Array.iter
    (fun (i, w) -> ignore (Netlist.add_po nl ~driver:(node i) ~weight:w))
    rc.rc_pos;
  nl

(* Fuzzing the BLIF reader: a Table-1 BLIF with 1-4 random edits (insert
   a BLIF token, delete a span, duplicate a span) must parse to [Ok] or
   [Error], never raise. *)
let table1_blifs =
  lazy
    (Array.of_list
       (List.map
          (fun spec -> Blif.to_string (Workloads.Suite.build spec))
          Workloads.Suite.table1))

let blif_tokens =
  [| ".model"; ".inputs"; ".outputs"; ".names"; ".latch"; ".end"; ".exdc";
     ".subckt"; "\\\n"; "\n"; " "; "#"; "-"; "0"; "1"; "2"; "11 1";
     "re"; "clk"; "x0"; "n1" |]

type blif_edit = Insert of int * string | Delete of int * int | Dup of int * int

let apply_blif_edit s edit =
  let n = String.length s in
  (* a position anywhere in [s], and a span from it clipped to [s] *)
  let at p = p mod (n + 1) in
  let span p l = (at p, min l (n - at p)) in
  match edit with
  | Insert (p, tok) ->
      let p = at p in
      String.sub s 0 p ^ tok ^ String.sub s p (n - p)
  | Delete (p, l) ->
      let p, l = span p l in
      String.sub s 0 p ^ String.sub s (p + l) (n - p - l)
  | Dup (p, l) ->
      let p, l = span p l in
      String.sub s 0 (p + l) ^ String.sub s p (n - p)

let qcheck_blif_fuzz =
  let open QCheck in
  let edit =
    Gen.(
      let* p = int_bound 1_000_000 in
      let* l = int_range 1 200 in
      oneof
        [
          map (fun t -> Insert (p, t)) (oneofa blif_tokens);
          return (Delete (p, l));
          return (Dup (p, l));
        ])
  in
  let print (c, edits) =
    Printf.sprintf "circuit %d: %s" c
      (String.concat "; "
         (List.map
            (function
              | Insert (p, t) -> Printf.sprintf "insert %S at %d" t p
              | Delete (p, l) -> Printf.sprintf "delete %d at %d" l p
              | Dup (p, l) -> Printf.sprintf "duplicate %d at %d" l p)
            edits))
  in
  Test.make ~count:500 ~name:"mutated Table-1 BLIFs parse or fail, never raise"
    (make ~print
       Gen.(
         pair
           (int_bound (List.length Workloads.Suite.table1 - 1))
           (list_size (int_range 1 4) edit)))
    (fun (c, edits) ->
      let text =
        List.fold_left apply_blif_edit (Lazy.force table1_blifs).(c) edits
      in
      match Blif.parse_string text with Ok _ | Error _ -> true)

let shuffle rng arr =
  let arr = Array.copy arr in
  for i = Array.length arr - 1 downto 1 do
    let j = Prelude.Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  arr

let qcheck_canon =
  let open QCheck in
  let seed = make Gen.(int_bound 1_000_000) in
  [
    Test.make ~count:60
      ~name:"canon digest invariant under gate permutation and renaming"
      seed
      (fun s ->
        let rng = Prelude.Rng.create s in
        let rc = gen_canon_recipe rng in
        let ident = Array.init (Array.length rc.rc_gates) Fun.id in
        let a =
          build_canon_recipe rc ~order:ident
            ~wire_name:(Printf.sprintf "w%d")
        in
        let b =
          build_canon_recipe rc ~order:(shuffle rng ident)
            ~wire_name:(fun i -> Printf.sprintf "renamed_%d_x" ((i * 7) + 1))
        in
        Canon.digest a = Canon.digest b
        && Canon.digest64 a = Canon.digest64 b);
    Test.make ~count:60
      ~name:"canon digest separates a flipped gate function" seed
      (fun s ->
        let rng = Prelude.Rng.create (s + 7919) in
        let rc = gen_canon_recipe rng in
        let ident = Array.init (Array.length rc.rc_gates) Fun.id in
        let wire_name = Printf.sprintf "w%d" in
        let a = build_canon_recipe rc ~order:ident ~wire_name in
        let b = build_canon_recipe rc ~order:ident ~wire_name in
        (* flip one truth-table bit of one gate: a semantic change that
           keeps every name, id and wire identical *)
        let g = Prelude.Rng.pick rng (Array.of_list (Netlist.gates b)) in
        let f = Netlist.gate_function b g in
        let bit = Prelude.Rng.int rng (1 lsl Truthtable.arity f) in
        Netlist.set_gate_function b g
          (Truthtable.create (Truthtable.arity f)
             (Int64.logxor (Truthtable.bits f) (Int64.shift_left 1L bit)));
        Canon.digest a <> Canon.digest b);
  ]

let test_canon_format_and_determinism () =
  let nl, _, _, _, _ = feedback_pair () in
  let d = Canon.digest nl in
  Alcotest.(check int) "32 hex chars" 32 (String.length d);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d;
  Alcotest.(check string) "deterministic" d (Canon.digest nl);
  (* the circuit's own name does not participate *)
  Netlist.set_name nl "something-else";
  Alcotest.(check string) "name-independent" d (Canon.digest nl)

let test_canon_suite_distinct () =
  (* every Table-1 circuit digests distinctly: a structural digest
     tells the suite's circuits apart *)
  let digests =
    List.map
      (fun spec ->
        (spec.Workloads.Suite.name,
         Canon.digest (Workloads.Suite.build spec)))
      Workloads.Suite.table1
  in
  List.iteri
    (fun i (na, da) ->
      List.iteri
        (fun j (nb, db) ->
          if i < j && da = db then
            Alcotest.failf "suite circuits %s and %s collide (%s)" na nb da)
        digests)
    digests

let () =
  Alcotest.run "circuit"
    [
      ( "netlist",
        [
          Alcotest.test_case "build basic" `Quick test_build_basic;
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "ff sharing" `Quick test_ff_sharing;
          Alcotest.test_case "mdr" `Quick test_mdr;
          Alcotest.test_case "comb topo" `Quick test_comb_topo;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "full adder" `Quick test_full_adder;
        ] );
      ( "blif",
        [
          Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "latch chain" `Quick test_blif_latch_chain;
          Alcotest.test_case "constants" `Quick test_blif_constants;
          Alcotest.test_case "offset cubes" `Quick test_blif_offset_cubes;
          Alcotest.test_case "errors" `Quick test_blif_errors;
          Alcotest.test_case "wide gate" `Quick test_blif_wide_gate;
          Alcotest.test_case "name collision" `Quick test_blif_name_collision;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "random roundtrips" `Quick test_blif_roundtrip_random;
          Alcotest.test_case "file io" `Quick test_blif_file_io;
          QCheck_alcotest.to_alcotest qcheck_blif_fuzz;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "combinational" `Quick test_verilog_comb_no_clock;
          Alcotest.test_case "sanitize" `Quick test_verilog_sanitize;
        ] );
      ( "canon",
        Alcotest.test_case "format and determinism" `Quick
          test_canon_format_and_determinism
        :: Alcotest.test_case "table1 pairwise distinct" `Quick
             test_canon_suite_distinct
        :: List.map QCheck_alcotest.to_alcotest qcheck_canon );
    ]
