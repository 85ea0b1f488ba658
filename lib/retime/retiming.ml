open Circuit

let delta nl ~weight =
  (* arrival times over the zero-weight subgraph; weight v j gives the
     (possibly retimed) weight of fanin j of v *)
  let n = Netlist.n nl in
  let succ =
    let out = Array.make n [] in
    for v = 0 to n - 1 do
      Array.iteri
        (fun j (d, _) -> if weight v j = 0 then out.(d) <- v :: out.(d))
        (Netlist.fanins nl v)
    done;
    fun v -> out.(v)
  in
  match Graphs.Topo.sort ~n ~succ with
  | None -> None
  | Some order ->
      let dl = Array.make n 0 in
      Array.iter
        (fun v ->
          let dv = Netlist.delay nl v in
          dl.(v) <- dv;
          Array.iteri
            (fun j (d, _) ->
              if weight v j = 0 && dl.(d) + dv > dl.(v) then dl.(v) <- dl.(d) + dv)
            (Netlist.fanins nl v))
        order;
      Some dl

let plain_weight nl v j = snd (Netlist.fanins nl v).(j)

let clock_period nl =
  match delta nl ~weight:(plain_weight nl) with
  | None -> invalid_arg "Retiming.clock_period: combinational loop"
  | Some dl -> Array.fold_left max 0 dl

let retimed_weight nl r v j =
  let d, w = (Netlist.fanins nl v).(j) in
  w + r.(v) - r.(d)

let legal nl ~r =
  let ok = ref true in
  for v = 0 to Netlist.n nl - 1 do
    Array.iteri
      (fun j _ -> if retimed_weight nl r v j < 0 then ok := false)
      (Netlist.fanins nl v)
  done;
  !ok

let apply nl ~r =
  if Array.length r <> Netlist.n nl then invalid_arg "Retiming.apply: length";
  if not (legal nl ~r) then invalid_arg "Retiming.apply: illegal retiming";
  let nl' = Netlist.copy nl in
  for v = 0 to Netlist.n nl' - 1 do
    Array.iteri
      (fun j _ -> Netlist.set_weight nl' v j (retimed_weight nl r v j))
      (Netlist.fanins nl' v)
  done;
  nl'

(* ---- exact minimum-period retiming via W/D matrices ---- *)

(* Per-source Dijkstra for W(u,.), then longest-delay DP over the tight
   (minimum-weight) subgraph, which is acyclic because the circuit has no
   zero-weight cycles. *)
let wd_rows nl u =
  let n = Netlist.n nl in
  let fanouts = Netlist.fanouts nl in
  let wrow = Array.make n max_int in
  let module Pq = Set.Make (struct
    type t = int * int (* (dist, node) *)

    let compare = compare
  end) in
  wrow.(u) <- 0;
  let pq = ref (Pq.singleton (0, u)) in
  while not (Pq.is_empty !pq) do
    let ((d, v) as el) = Pq.min_elt !pq in
    pq := Pq.remove el !pq;
    if d = wrow.(v) then
      List.iter
        (fun cons ->
          Array.iter
            (fun (drv, w) ->
              if drv = v && wrow.(v) <> max_int && wrow.(v) + w < wrow.(cons)
              then begin
                wrow.(cons) <- wrow.(v) + w;
                pq := Pq.add (wrow.(cons), cons) !pq
              end)
            (Netlist.fanins nl cons))
        fanouts.(v)
  done;
  (* tight subgraph: edges (x -> y) with wrow.(x) + w = wrow.(y) *)
  let drow = Array.make n min_int in
  drow.(u) <- Netlist.delay nl u;
  let tight_succ v =
    if wrow.(v) = max_int then []
    else
      List.filter
        (fun cons ->
          Array.exists
            (fun (drv, w) -> drv = v && wrow.(v) + w = wrow.(cons))
            (Netlist.fanins nl cons))
        fanouts.(v)
  in
  (* topological order restricted to reachable tight subgraph *)
  (match Graphs.Topo.sort ~n ~succ:tight_succ with
  | None -> invalid_arg "Retiming: zero-weight cycle"
  | Some order ->
      Array.iter
        (fun v ->
          if drow.(v) <> min_int then
            List.iter
              (fun cons ->
                let dc = drow.(v) + Netlist.delay nl cons in
                if dc > drow.(cons) then drow.(cons) <- dc)
              (tight_succ v))
        order);
  (wrow, drow)

let feasible_period nl ~period =
  let n = Netlist.n nl in
  (* difference constraints solved by Bellman-Ford from a virtual node n *)
  let constraints = ref [] in
  (* legality: r(u) - r(v) <= w(e)  =>  edge v -> u length w *)
  for v = 0 to n - 1 do
    Array.iter
      (fun (d, w) -> constraints := (v, d, w) :: !constraints)
      (Netlist.fanins nl v)
  done;
  (* period: for D(u,v) > c: r(u) - r(v) <= W(u,v) - 1 => edge v -> u *)
  for u = 0 to n - 1 do
    let wrow, drow = wd_rows nl u in
    for v = 0 to n - 1 do
      if drow.(v) <> min_int && drow.(v) > period && wrow.(v) <> max_int then
        constraints := (v, u, wrow.(v) - 1) :: !constraints
    done
  done;
  (* fixed lags on PIs and POs: r(x) = 0 via x <-> virtual *)
  List.iter
    (fun x ->
      constraints := (n, x, 0) :: (x, n, 0) :: !constraints)
    (Netlist.pis nl @ Netlist.pos nl);
  (* Solve the difference constraints by shortest paths from an extra
     super-source with 0-length edges to every variable (so every variable
     is reachable); a negative cycle means the period is infeasible.  The
     virtual reference node [n] pins PI/PO lags: subtracting dist(n)
     normalizes them to exactly 0. *)
  let dist = Array.make (n + 1) 0 in
  let edges = Array.of_list !constraints in
  let changed = ref true in
  let pass = ref 0 in
  let negative = ref false in
  while !changed && not !negative do
    changed := false;
    Array.iter
      (fun (a, b, len) ->
        if dist.(a) + len < dist.(b) then begin
          dist.(b) <- dist.(a) + len;
          changed := true
        end)
      edges;
    incr pass;
    if !changed && !pass > n + 1 then negative := true
  done;
  if !negative then None
  else begin
    let ref_dist = dist.(n) in
    let r = Array.init n (fun v -> dist.(v) - ref_dist) in
    assert (legal nl ~r);
    Some r
  end

let min_period nl =
  let ub = clock_period nl in
  let lo = ref 1 and hi = ref ub in
  let best = ref (ub, Array.make (Netlist.n nl) 0) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    match feasible_period nl ~period:mid with
    | Some r ->
        best := (mid, r);
        hi := mid - 1
    | None -> lo := mid + 1
  done;
  !best

let ff_count nl ~r =
  let n = Netlist.n nl in
  let maxw = Array.make n 0 in
  for v = 0 to n - 1 do
    Array.iteri
      (fun j (d, _) ->
        let w = retimed_weight nl r v j in
        if w > maxw.(d) then maxw.(d) <- w)
      (Netlist.fanins nl v)
  done;
  Array.fold_left ( + ) 0 maxw

let period_of nl r =
  match delta nl ~weight:(retimed_weight nl r) with
  | None -> max_int
  | Some dl -> Array.fold_left max 0 dl

let c_trials = Obs.Counter.make "retime.ffmin_trials"
let c_period_checks = Obs.Counter.make "retime.ffmin_period_checks"
let c_moves = Obs.Counter.make "retime.ffmin_moves"

(* Each ±1 trial is checked with work proportional to the moved gate's
   degree.  A move of r(v) changes only v's in-edges and out-edges, so
   (r being legal before the trial) checking those edges decides [legal];
   it changes [maxw] (the largest retimed out-edge weight, as [ff_count]
   sums it) only for v and v's fanin drivers.  The whole-circuit period
   pass runs last, only for a legal move that lowers the count: the
   acceptance test is a conjunction of pure predicates, so the order
   changes no decision. *)
let minimize_ffs nl ~period ~r =
  if not (legal nl ~r) then invalid_arg "Retiming.minimize_ffs: illegal lags";
  let n = Netlist.n nl in
  let r = Array.copy r in
  (* out-edges of each driver as (consumer, fanin index) *)
  let outs = Array.make n [] in
  for v = n - 1 downto 0 do
    Array.iteri
      (fun j (d, _) -> outs.(d) <- (v, j) :: outs.(d))
      (Netlist.fanins nl v)
  done;
  let maxw_of d =
    List.fold_left (fun m (c, j) -> max m (retimed_weight nl r c j)) 0 outs.(d)
  in
  let maxw = Array.init n maxw_of in
  let best = ref (Array.fold_left ( + ) 0 maxw) in
  (* v and its distinct fanin drivers: the nodes whose [maxw] a move of v
     changes *)
  let seen = Array.make n 0 and trial = ref 0 in
  let affected v =
    incr trial;
    seen.(v) <- !trial;
    Array.fold_left
      (fun acc (d, _) ->
        if seen.(d) = !trial then acc
        else begin
          seen.(d) <- !trial;
          d :: acc
        end)
      [ v ] (Netlist.fanins nl v)
  in
  let local_legal v =
    Array.for_all (fun (d, w) -> w + r.(v) - r.(d) >= 0) (Netlist.fanins nl v)
    && List.for_all (fun (c, j) -> retimed_weight nl r c j >= 0) outs.(v)
  in
  let gates = Netlist.gates nl in
  let improved = ref true in
  let rounds = ref (n * 4) in
  while !improved && !rounds > 0 do
    decr rounds;
    improved := false;
    List.iter
      (fun v ->
        List.iter
          (fun delta_r ->
            Obs.Counter.incr c_trials;
            r.(v) <- r.(v) + delta_r;
            let accepted =
              if not (local_legal v) then None
              else
                let fresh = List.map (fun d -> (d, maxw_of d)) (affected v) in
                let c =
                  List.fold_left (fun c (d, m) -> c - maxw.(d) + m) !best fresh
                in
                if
                  c < !best
                  && (Obs.Counter.incr c_period_checks;
                      period_of nl r <= period)
                then Some (fresh, c)
                else None
            in
            match accepted with
            | Some (fresh, c) ->
                List.iter (fun (d, m) -> maxw.(d) <- m) fresh;
                best := c;
                improved := true;
                Obs.Counter.incr c_moves
            | None -> r.(v) <- r.(v) - delta_r)
          [ 1; -1 ])
      gates
  done;
  r
