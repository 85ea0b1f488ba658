(* Tests for max-flow and K-feasible node cuts, validated against brute
   force subset enumeration on small random cone networks. *)

open Flow

let test_maxflow_basic () =
  (* classic diamond: s=0, t=3, caps 0->1:3, 0->2:2, 1->3:2, 2->3:3, 1->2:1 *)
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:3;
  Maxflow.add_edge net ~src:0 ~dst:2 ~cap:2;
  Maxflow.add_edge net ~src:1 ~dst:3 ~cap:2;
  Maxflow.add_edge net ~src:2 ~dst:3 ~cap:3;
  Maxflow.add_edge net ~src:1 ~dst:2 ~cap:1;
  Alcotest.(check int) "flow 5" 5 (Maxflow.max_flow net ~s:0 ~t:3 ~limit:100)

let test_maxflow_limit () =
  let net = Maxflow.create 2 in
  for _ = 1 to 10 do
    Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1
  done;
  let f = Maxflow.max_flow net ~s:0 ~t:1 ~limit:3 in
  Alcotest.(check bool) "stops early" true (f >= 4 && f <= 10);
  Alcotest.(check bool) "exceeds limit" true (f > 3)

let test_maxflow_disconnected () =
  let net = Maxflow.create 3 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:5;
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow net ~s:0 ~t:2 ~limit:10)

let test_maxflow_reset () =
  let net = Maxflow.create 2 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:4;
  Alcotest.(check int) "first" 4 (Maxflow.max_flow net ~s:0 ~t:1 ~limit:10);
  Maxflow.reset net;
  Alcotest.(check int) "after reset" 4 (Maxflow.max_flow net ~s:0 ~t:1 ~limit:10)

let test_residual_cut () =
  let net = Maxflow.create 4 in
  Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1;
  Maxflow.add_edge net ~src:1 ~dst:2 ~cap:5;
  Maxflow.add_edge net ~src:2 ~dst:3 ~cap:5;
  ignore (Maxflow.max_flow net ~s:0 ~t:3 ~limit:100);
  let r = Maxflow.residual_reachable net ~s:0 in
  Alcotest.(check (list bool))
    "cut after 0->1"
    [ true; false; false; false ]
    (List.init 4 r)

(* --- Kcut --- *)

(* chain: 0 -> 1 -> 2(root) *)
let test_kcut_chain () =
  let spec =
    {
      Kcut.n = 3;
      edges = [| (0, 1); (1, 2) |];
      sink_side = [| false; false; true |];
      sources = [ 0 ];
    }
  in
  (match Kcut.find spec ~k:1 with
  | Kcut.Cut c -> Alcotest.(check int) "cut size 1" 1 (List.length c)
  | Kcut.Exceeds -> Alcotest.fail "chain has a 1-cut");
  match Kcut.find spec ~k:0 with
  | Kcut.Exceeds -> ()
  | Kcut.Cut _ -> Alcotest.fail "no 0-cut exists"

let test_kcut_forced_frontier () =
  (* the only source is itself forced to the sink side: no cut *)
  let spec =
    {
      Kcut.n = 2;
      edges = [| (0, 1) |];
      sink_side = [| true; true |];
      sources = [ 0 ];
    }
  in
  Alcotest.(check bool) "exceeds" true (Kcut.find spec ~k:5 = Kcut.Exceeds)

let test_kcut_reconvergence () =
  (* two paths from node 0 reconverge at root 3: cutting node 0 beats
     cutting both branches *)
  let spec =
    {
      Kcut.n = 4;
      edges = [| (0, 1); (0, 2); (1, 3); (2, 3) |];
      sink_side = [| false; false; false; true |];
      sources = [ 0 ];
    }
  in
  match Kcut.find spec ~k:1 with
  | Kcut.Cut [ 0 ] -> ()
  | Kcut.Cut c -> Alcotest.failf "expected [0], got %d nodes" (List.length c)
  | Kcut.Exceeds -> Alcotest.fail "expected a 1-cut"

let test_kcut_validate () =
  Alcotest.check_raises "empty sink" (Invalid_argument "Kcut: empty sink side")
    (fun () ->
      ignore
        (Kcut.find
           { Kcut.n = 1; edges = [||]; sink_side = [| false |]; sources = [] }
           ~k:1))

(* brute force: minimal separating node set not touching sink_side *)
let brute_min_cut (spec : Kcut.spec) =
  let n = spec.n in
  let adj = Array.make n [] in
  Array.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) spec.edges;
  let separates removed =
    (* BFS from sources avoiding removed; fails if it reaches sink side.
       Sources themselves may be removed (they can be cut nodes). *)
    let visited = Array.make n false in
    let q = Queue.create () in
    List.iter
      (fun s ->
        if not removed.(s) then begin
          visited.(s) <- true;
          Queue.add s q
        end)
      spec.sources;
    let bad = ref (List.exists (fun s -> (not removed.(s)) && spec.sink_side.(s)) spec.sources) in
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun w ->
          if (not visited.(w)) && not removed.(w) then begin
            visited.(w) <- true;
            if spec.sink_side.(w) then bad := true else Queue.add w q
          end)
        adj.(v)
    done;
    not !bad
  in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let removed = Array.init n (fun v -> mask land (1 lsl v) <> 0) in
    let ok = ref true in
    for v = 0 to n - 1 do
      if removed.(v) && spec.sink_side.(v) then ok := false
    done;
    if !ok && separates removed then begin
      let size = List.length (List.filter Fun.id (Array.to_list removed)) in
      if size < !best then best := size
    end
  done;
  if List.exists (fun s -> spec.sink_side.(s)) spec.sources then None
  else if !best = max_int then None
  else Some !best

let cut_is_valid (spec : Kcut.spec) cut =
  let removed = Array.make spec.n false in
  List.iter (fun v -> removed.(v) <- true) cut;
  let ok_nodes = List.for_all (fun v -> not spec.sink_side.(v)) cut in
  let adj = Array.make spec.n [] in
  Array.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) spec.edges;
  let visited = Array.make spec.n false in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not removed.(s) then begin
        visited.(s) <- true;
        Queue.add s q
      end)
    spec.sources;
  let bad = ref false in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    if spec.sink_side.(v) then bad := true;
    List.iter
      (fun w ->
        if (not visited.(w)) && not removed.(w) then begin
          visited.(w) <- true;
          Queue.add w q
        end)
      adj.(v)
  done;
  ok_nodes && not !bad

(* reference max-flow, independent of lib/flow: BFS augmenting paths on
   a dense residual matrix — the solver the Dinic rewrite replaced, kept
   here as the agreement oracle *)
let ref_max_flow n edges ~s ~t =
  let cap = Array.make_matrix n n 0 in
  List.iter (fun (u, v, c) -> cap.(u).(v) <- cap.(u).(v) + c) edges;
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let parent = Array.make n (-1) in
    parent.(s) <- s;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      for w = 0 to n - 1 do
        if parent.(w) < 0 && cap.(v).(w) > 0 then begin
          parent.(w) <- v;
          Queue.add w q
        end
      done
    done;
    if parent.(t) < 0 then continue := false
    else begin
      let b = ref max_int in
      let v = ref t in
      while !v <> s do
        let p = parent.(!v) in
        b := min !b cap.(p).(!v);
        v := p
      done;
      let v = ref t in
      while !v <> s do
        let p = parent.(!v) in
        cap.(p).(!v) <- cap.(p).(!v) - !b;
        cap.(!v).(p) <- cap.(!v).(p) + !b;
        v := p
      done;
      total := !total + !b
    end
  done;
  !total

(* the split-node network Kcut.solve builds, as an explicit edge list:
   v_in = 2v, v_out = 2v+1, super-source 2n, sink 2n+1 *)
let split_network (spec : Kcut.spec) ~inf =
  let n' = (2 * spec.n) + 2 in
  let s' = 2 * spec.n and t' = (2 * spec.n) + 1 in
  let edges = ref [] in
  for v = 0 to spec.n - 1 do
    if not spec.sink_side.(v) then edges := (2 * v, (2 * v) + 1, 1) :: !edges
  done;
  Array.iter
    (fun (u, v) ->
      if not spec.sink_side.(u) then
        if spec.sink_side.(v) then edges := ((2 * u) + 1, t', inf) :: !edges
        else edges := ((2 * u) + 1, 2 * v, inf) :: !edges)
    spec.edges;
  List.iter (fun v -> edges := (s', 2 * v, inf) :: !edges) spec.sources;
  (n', !edges, s', t')

let qcheck_kcut =
  let open QCheck in
  (* random layered cone networks: nodes 0..n-1, edges only forward,
     root = n-1 is always sink-side; a random prefix are sources *)
  let gen =
    Gen.(
      sized_size (int_range 4 9) (fun n ->
          let* nedges = int_range (n - 1) (2 * n) in
          let* edges =
            list_repeat nedges
              (let* u = int_range 0 (n - 2) in
               let* v = int_range (u + 1) (n - 1) in
               return (u, v))
          in
          let* nsrc = int_range 1 (max 1 (n / 3)) in
          let* extra_sink = list_size (int_range 0 2) (int_range 0 (n - 2)) in
          return (n, edges, nsrc, extra_sink)))
  in
  let to_spec (n, edges, nsrc, extra_sink) =
    let sink_side = Array.make n false in
    sink_side.(n - 1) <- true;
    List.iter (fun v -> if v >= nsrc then sink_side.(v) <- true) extra_sink;
    {
      Kcut.n;
      edges = Array.of_list edges;
      sink_side;
      sources = List.init nsrc Fun.id;
    }
  in
  let print (n, edges, nsrc, extra) =
    Printf.sprintf "n=%d src<%d sinks+%s edges=%s" n nsrc
      (String.concat "," (List.map string_of_int extra))
      (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
  in
  [
    Test.make ~name:"kcut matches brute-force minimum" ~count:400
      (make ~print gen)
      (fun input ->
        let spec = to_spec input in
        let brute = brute_min_cut spec in
        match (Kcut.find spec ~k:spec.n, brute) with
        | Kcut.Exceeds, None -> true
        | Kcut.Cut cut, Some size ->
            List.length cut = size && cut_is_valid spec cut
        | Kcut.Cut _, None | Kcut.Exceeds, Some _ -> false);
    Test.make ~name:"kcut decision consistent at every k" ~count:200
      (make ~print gen)
      (fun input ->
        let spec = to_spec input in
        match brute_min_cut spec with
        | None -> Kcut.find spec ~k:spec.n = Kcut.Exceeds
        | Some size ->
            let ok = ref true in
            for k = 0 to spec.n do
              match Kcut.find spec ~k with
              | Kcut.Cut c ->
                  if k < size then ok := false
                  else if not (cut_is_valid spec c && List.length c <= k) then
                    ok := false
              | Kcut.Exceeds -> if k >= size then ok := false
            done;
            !ok);
    Test.make ~name:"dinic agrees with reference solver on split networks"
      ~count:300 (make ~print gen)
      (fun input ->
        let spec = to_spec input in
        let inf = 1000 in
        let n', edges, s', t' = split_network spec ~inf in
        let net = Maxflow.create n' in
        List.iter
          (fun (src, dst, cap) -> Maxflow.add_edge net ~src ~dst ~cap)
          edges;
        let full = Maxflow.max_flow net ~s:s' ~t:t' ~limit:(n' * inf) in
        full = ref_max_flow n' edges ~s:s' ~t:t');
    Test.make ~name:"capped find is the min cut within its cap" ~count:200
      (make ~print gen)
      (fun input ->
        (* the label flows raise the limit to [max k cmax] to get the
           resynthesis candidate from the same run: a cap [c] must answer
           exactly when the minimum cut fits, and with the same cut *)
        let spec = to_spec input in
        let arena = Kcut.new_arena () in
        let min = Kcut.find spec ~k:spec.n in
        let ok = ref true in
        for c = 0 to spec.n do
          let expect =
            match min with
            | Kcut.Cut m when List.length m <= c -> Kcut.Cut m
            | _ -> Kcut.Exceeds
          in
          if Kcut.find ~arena spec ~k:c <> expect then ok := false
        done;
        !ok);
  ]

let () =
  Alcotest.run "flow"
    [
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_basic;
          Alcotest.test_case "limit" `Quick test_maxflow_limit;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "reset" `Quick test_maxflow_reset;
          Alcotest.test_case "residual cut" `Quick test_residual_cut;
        ] );
      ( "kcut",
        [
          Alcotest.test_case "chain" `Quick test_kcut_chain;
          Alcotest.test_case "forced frontier" `Quick test_kcut_forced_frontier;
          Alcotest.test_case "reconvergence" `Quick test_kcut_reconvergence;
          Alcotest.test_case "validation" `Quick test_kcut_validate;
        ] );
      ("kcut-props", List.map QCheck_alcotest.to_alcotest qcheck_kcut);
    ]
