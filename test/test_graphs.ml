(* Tests for graph algorithms: SCC, topological sort, Bellman-Ford,
   exact maximum delay-to-register ratio (vs brute-force cycle
   enumeration on small random graphs). *)

open Prelude
open Graphs

let succ_of_list n pairs =
  let succ = Array.make n [] in
  List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) pairs;
  fun v -> succ.(v)

(* --- SCC --- *)

let test_scc_basic () =
  (* two 2-cycles joined by a one-way edge, plus an isolated node *)
  let succ = succ_of_list 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let scc = Scc.compute ~n:5 ~succ in
  Alcotest.(check int) "three comps" 3 scc.Scc.count;
  Alcotest.(check int) "0 and 1 together" scc.Scc.comp.(0) scc.Scc.comp.(1);
  Alcotest.(check int) "2 and 3 together" scc.Scc.comp.(2) scc.Scc.comp.(3);
  Alcotest.(check bool) "4 alone" true
    (scc.Scc.comp.(4) <> scc.Scc.comp.(0) && scc.Scc.comp.(4) <> scc.Scc.comp.(2));
  (* edge comp(1) -> comp(2): target must have smaller id *)
  Alcotest.(check bool) "reverse-topological ids" true
    (scc.Scc.comp.(1) > scc.Scc.comp.(2))

let test_scc_single_cycle () =
  let n = 6 in
  let succ = succ_of_list n (List.init n (fun i -> (i, (i + 1) mod n))) in
  let scc = Scc.compute ~n ~succ in
  Alcotest.(check int) "one comp" 1 scc.Scc.count;
  Alcotest.(check int) "all members" n (Array.length scc.Scc.members.(0))

let test_scc_dag () =
  let succ = succ_of_list 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let scc = Scc.compute ~n:4 ~succ in
  Alcotest.(check int) "all singleton" 4 scc.Scc.count;
  for c = 0 to 3 do
    Alcotest.(check bool) "trivial" true (Scc.is_trivial scc ~succ c)
  done

let test_scc_self_loop () =
  let succ = succ_of_list 2 [ (0, 0); (0, 1) ] in
  let scc = Scc.compute ~n:2 ~succ in
  Alcotest.(check int) "two comps" 2 scc.Scc.count;
  Alcotest.(check bool) "self loop not trivial" false
    (Scc.is_trivial scc ~succ scc.Scc.comp.(0));
  Alcotest.(check bool) "other trivial" true
    (Scc.is_trivial scc ~succ scc.Scc.comp.(1))

let test_scc_topo_order () =
  let succ = succ_of_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let scc = Scc.compute ~n:4 ~succ in
  let order = Scc.topo_order scc in
  (* position of comp of node v *)
  let pos = Array.make scc.Scc.count 0 in
  Array.iteri (fun i c -> pos.(c) <- i) order;
  Alcotest.(check bool) "edges forward" true
    (pos.(scc.Scc.comp.(0)) < pos.(scc.Scc.comp.(1))
    && pos.(scc.Scc.comp.(1)) < pos.(scc.Scc.comp.(2))
    && pos.(scc.Scc.comp.(2)) < pos.(scc.Scc.comp.(3)))

(* property: comp ids consistent with reachability on random graphs *)
let qcheck_scc =
  let open QCheck in
  let gen =
    Gen.(
      sized_size (int_range 2 9) (fun n ->
          let* edges =
            list_size (int_range 0 (2 * n))
              (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
          in
          return (n, edges)))
  in
  let reachable n edges =
    (* floyd-warshall boolean closure *)
    let r = Array.make_matrix n n false in
    List.iter (fun (a, b) -> r.(a).(b) <- true) edges;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if r.(i).(k) && r.(k).(j) then r.(i).(j) <- true
        done
      done
    done;
    r
  in
  [
    Test.make ~name:"scc matches mutual reachability" ~count:300
      (make ~print:(fun (n, e) -> Printf.sprintf "n=%d edges=%d" n (List.length e)) gen)
      (fun (n, edges) ->
        let succ = succ_of_list n edges in
        let scc = Scc.compute ~n ~succ in
        let r = reachable n edges in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let same = scc.Scc.comp.(i) = scc.Scc.comp.(j) in
            let mutual = i = j || (r.(i).(j) && r.(j).(i)) in
            if same <> mutual then ok := false
          done
        done;
        !ok);
  ]

(* --- Topo --- *)

let test_topo_dag () =
  let succ = succ_of_list 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  match Topo.sort ~n:5 ~succ with
  | None -> Alcotest.fail "expected DAG"
  | Some order ->
      let pos = Array.make 5 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool) "edge forward" true (pos.(a) < pos.(b)))
        [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ]

let test_topo_cycle () =
  let succ = succ_of_list 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "cycle detected" true (Topo.sort ~n:3 ~succ = None);
  Alcotest.check_raises "sort_exn raises"
    (Invalid_argument "Topo.sort_exn: graph has a cycle") (fun () ->
      ignore (Topo.sort_exn ~n:3 ~succ))

(* --- Bellman-Ford --- *)

let bf_edges lst =
  Array.of_list
    (List.map (fun (src, dst, len) -> { Bellman_ford.src; dst; len }) lst)

let test_bf_no_cycle () =
  let edges = bf_edges [ (0, 1, 5); (1, 2, -3); (0, 2, 10) ] in
  Alcotest.(check bool) "acyclic" false
    (Bellman_ford.has_positive_cycle ~n:3 ~edges)

let test_bf_positive_cycle () =
  let edges = bf_edges [ (0, 1, 2); (1, 0, -1) ] in
  Alcotest.(check bool) "positive 2-cycle" true
    (Bellman_ford.has_positive_cycle ~n:2 ~edges);
  let edges = bf_edges [ (0, 1, 2); (1, 0, -2) ] in
  Alcotest.(check bool) "zero cycle is fine" false
    (Bellman_ford.has_positive_cycle ~n:2 ~edges)

(* --- Cycle ratio --- *)

let cr_edges lst =
  Array.of_list
    (List.map
       (fun (src, dst, delay, weight) -> { Cycle_ratio.src; dst; delay; weight })
       lst)

let rat = Alcotest.testable Rat.pp Rat.equal

let check_ratio name expect got =
  match got with
  | Cycle_ratio.Ratio r -> Alcotest.check rat name expect r
  | Cycle_ratio.No_cycle -> Alcotest.failf "%s: got No_cycle" name
  | Cycle_ratio.Infinite -> Alcotest.failf "%s: got Infinite" name

let test_ratio_simple_loop () =
  (* 3 unit-delay edges, 2 registers on the loop: ratio 3/2 *)
  let edges = cr_edges [ (0, 1, 1, 1); (1, 2, 1, 0); (2, 0, 1, 1) ] in
  check_ratio "3/2" (Rat.make 3 2) (Cycle_ratio.max_ratio ~n:3 ~edges)

let test_ratio_no_cycle () =
  let edges = cr_edges [ (0, 1, 1, 0); (1, 2, 1, 1) ] in
  Alcotest.(check bool) "no cycle" true
    (Cycle_ratio.max_ratio ~n:3 ~edges = Cycle_ratio.No_cycle)

let test_ratio_infinite () =
  let edges = cr_edges [ (0, 1, 1, 0); (1, 0, 1, 0) ] in
  Alcotest.(check bool) "combinational loop" true
    (Cycle_ratio.max_ratio ~n:2 ~edges = Cycle_ratio.Infinite)

let test_ratio_zero_delay_zero_weight_loop () =
  (* a zero-delay zero-weight loop does not make the ratio infinite *)
  let edges = cr_edges [ (0, 1, 0, 0); (1, 0, 0, 0); (0, 2, 1, 1); (2, 0, 1, 1) ] in
  check_ratio "ratio 1" Rat.one (Cycle_ratio.max_ratio ~n:3 ~edges)

let test_ratio_two_loops () =
  (* loop A ratio 2/1, loop B ratio 5/3: max is 2 *)
  let edges =
    cr_edges
      [
        (0, 1, 1, 0); (1, 0, 1, 1);
        (2, 3, 2, 1); (3, 4, 2, 1); (4, 2, 1, 1);
      ]
  in
  check_ratio "max 2" (Rat.of_int 2) (Cycle_ratio.max_ratio ~n:5 ~edges)

let test_ratio_exceeds () =
  let edges = cr_edges [ (0, 1, 1, 1); (1, 0, 2, 1) ] in
  Alcotest.(check bool) "exceeds 1" true
    (Cycle_ratio.exceeds ~n:2 ~edges Rat.one);
  Alcotest.(check bool) "not exceeds 3/2" false
    (Cycle_ratio.exceeds ~n:2 ~edges (Rat.make 3 2));
  Alcotest.(check bool) "not exceeds 2" false
    (Cycle_ratio.exceeds ~n:2 ~edges (Rat.of_int 2))

(* brute-force simple-cycle enumeration for small graphs *)
let brute_force_ratio n (edges : Cycle_ratio.edge array) =
  let best = ref None in
  let infinite = ref false in
  let adj = Array.make n [] in
  Array.iter (fun (e : Cycle_ratio.edge) -> adj.(e.src) <- e :: adj.(e.src)) edges;
  (* enumerate simple cycles whose smallest node is [start] *)
  let rec dfs start v visited dsum wsum =
    List.iter
      (fun (e : Cycle_ratio.edge) ->
        let d = dsum + e.delay and w = wsum + e.weight in
        if e.dst = start then begin
          if w = 0 && d > 0 then infinite := true
          else
            (* a 0-delay 0-weight cycle counts as a ratio-0 cycle *)
            let r = if w = 0 then Rat.zero else Rat.make d w in
            match !best with
            | None -> best := Some r
            | Some b -> if Rat.(r > b) then best := Some r
        end
        else if e.dst > start && not (List.mem e.dst visited) then
          dfs start e.dst (e.dst :: visited) d w)
      adj.(v)
  in
  for s = 0 to n - 1 do
    dfs s s [ s ] 0 0
  done;
  if !infinite then Cycle_ratio.Infinite
  else match !best with None -> Cycle_ratio.No_cycle | Some r -> Cycle_ratio.Ratio r

let qcheck_cycle_ratio =
  let open QCheck in
  let gen =
    Gen.(
      sized_size (int_range 2 7) (fun n ->
          let* edges =
            list_size (int_range 1 12)
              (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 3)
                 (int_range 0 2))
          in
          return (n, edges)))
  in
  let print (n, es) =
    Printf.sprintf "n=%d [%s]" n
      (String.concat ";"
         (List.map (fun (a, b, d, w) -> Printf.sprintf "(%d,%d,d%d,w%d)" a b d w) es))
  in
  [
    Test.make ~name:"max_ratio matches brute force" ~count:500
      (make ~print gen)
      (fun (n, es) ->
        let edges = cr_edges es in
        let got = Cycle_ratio.max_ratio ~n ~edges in
        let expect = brute_force_ratio n edges in
        (match (got, expect) with
        | Cycle_ratio.Ratio a, Cycle_ratio.Ratio b -> Rat.equal a b
        | a, b -> a = b));
    Test.make ~name:"exceeds consistent with max_ratio" ~count:300
      (make ~print gen)
      (fun (n, es) ->
        let edges = cr_edges es in
        match Cycle_ratio.max_ratio ~n ~edges with
        | Cycle_ratio.Ratio r ->
            (not (Cycle_ratio.exceeds ~n ~edges r))
            && (Rat.equal r Rat.zero
               || Cycle_ratio.exceeds ~n ~edges
                    (Rat.sub r (Rat.make 1 1000000)))
        | Cycle_ratio.No_cycle -> not (Cycle_ratio.exceeds ~n ~edges Rat.zero)
        | Cycle_ratio.Infinite ->
            Cycle_ratio.exceeds ~n ~edges (Rat.of_int 1000000));
  ]

(* Howard's policy iteration must agree with the exact search *)
let qcheck_howard =
  let open QCheck in
  let gen =
    Gen.(
      sized_size (int_range 2 8) (fun n ->
          let* edges =
            list_size (int_range 1 14)
              (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 4)
                 (int_range 1 3))
          in
          return (n, edges)))
  in
  let print (n, es) = Printf.sprintf "n=%d %d edges" n (List.length es) in
  [
    Test.make ~name:"howard matches exact max ratio" ~count:300
      (make ~print gen)
      (fun (n, es) ->
        (* weights >= 1 ensure the no-combinational-loop precondition *)
        let exact_edges = cr_edges (List.map (fun (a,b,d,w) -> (a,b,d,w)) es) in
        let hw_edges =
          Array.of_list
            (List.map
               (fun (src, dst, delay, weight) -> { Howard.src; dst; delay; weight })
               es)
        in
        match (Cycle_ratio.max_ratio ~n ~edges:exact_edges,
               Howard.max_ratio ~n ~edges:hw_edges) with
        | Cycle_ratio.No_cycle, None -> true
        | Cycle_ratio.Ratio r, Some lam ->
            Float.abs (Rat.to_float r -. lam) < 1e-6
        | Cycle_ratio.Infinite, _ -> false (* cannot happen: weights >= 1 *)
        | _ -> false);
  ]

(* Karp's max mean cycle vs the exact ratio search with unit weights *)
let qcheck_karp =
  let open QCheck in
  let gen =
    Gen.(
      sized_size (int_range 2 7) (fun n ->
          let* edges =
            list_size (int_range 1 12)
              (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
                 (int_range 0 5))
          in
          return (n, edges)))
  in
  let print (n, es) = Printf.sprintf "n=%d %d edges" n (List.length es) in
  [
    Test.make ~name:"karp matches exact max mean" ~count:300
      (make ~print gen)
      (fun (n, es) ->
        let exact_edges = cr_edges (List.map (fun (a, b, d) -> (a, b, d, 1)) es) in
        let karp_edges = Array.of_list es in
        match (Cycle_ratio.max_ratio ~n ~edges:exact_edges,
               Karp.max_mean ~n ~edges:karp_edges) with
        | Cycle_ratio.No_cycle, None -> true
        | Cycle_ratio.Ratio r, Some m -> Rat.equal r m
        | _ -> false);
  ]

let test_ratio_float_close () =
  let edges = cr_edges [ (0, 1, 1, 1); (1, 2, 1, 0); (2, 0, 1, 1) ] in
  match Cycle_ratio.max_ratio_float ~n:3 ~edges ~epsilon:1e-4 with
  | Cycle_ratio.Ratio r ->
      Alcotest.(check bool) "close to 1.5" true
        (abs_float (Rat.to_float r -. 1.5) < 1e-3)
  | _ -> Alcotest.fail "expected ratio"

let () =
  Alcotest.run "graphs"
    [
      ( "scc",
        [
          Alcotest.test_case "basic" `Quick test_scc_basic;
          Alcotest.test_case "single cycle" `Quick test_scc_single_cycle;
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "topo order" `Quick test_scc_topo_order;
        ] );
      ("scc-props", List.map QCheck_alcotest.to_alcotest qcheck_scc);
      ( "topo",
        [
          Alcotest.test_case "dag" `Quick test_topo_dag;
          Alcotest.test_case "cycle" `Quick test_topo_cycle;
        ] );
      ( "bellman-ford",
        [
          Alcotest.test_case "no cycle" `Quick test_bf_no_cycle;
          Alcotest.test_case "positive cycle" `Quick test_bf_positive_cycle;
        ] );
      ( "cycle-ratio",
        [
          Alcotest.test_case "simple loop" `Quick test_ratio_simple_loop;
          Alcotest.test_case "no cycle" `Quick test_ratio_no_cycle;
          Alcotest.test_case "infinite" `Quick test_ratio_infinite;
          Alcotest.test_case "zero-zero loop" `Quick
            test_ratio_zero_delay_zero_weight_loop;
          Alcotest.test_case "two loops" `Quick test_ratio_two_loops;
          Alcotest.test_case "exceeds" `Quick test_ratio_exceeds;
          Alcotest.test_case "float search" `Quick test_ratio_float_close;
        ] );
      ("cycle-ratio-props", List.map QCheck_alcotest.to_alcotest qcheck_cycle_ratio);
      ("howard-props", List.map QCheck_alcotest.to_alcotest qcheck_howard);
      ("karp-props", List.map QCheck_alcotest.to_alcotest qcheck_karp);
    ]
