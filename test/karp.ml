(* Karp's algorithm for the maximum mean cycle (exact, integer): the
   oracle test_graphs holds [Graphs.Cycle_ratio] to.  The maximum mean
   cycle is the MDR ratio specialized to one register per edge; Karp's
   dynamic program computes it exactly in O(nm) with integer
   arithmetic.

   [max_mean ~n ~edges] with [(src, dst, length)] edges is the maximum
   over cycles of (total length / number of edges), or [None] when the
   graph is acyclic. *)

open Prelude
open Graphs

(* Karp on one SCC with local ids. *)
let scc_max_mean m (edges : (int * int * int) list) =
  (* d.(k).(v) = max length of a k-edge walk ending at v, from an arbitrary
     root (all nodes: SCC, so reachability is total after m steps) *)
  let neg = min_int / 4 in
  let d = Array.make_matrix (m + 1) m neg in
  (* start from every node: classic formulation uses a single source that
     reaches all; within an SCC, starting from node 0 reaches everything
     within m-1 steps, but walks shorter than the distance are undefined —
     initializing every node at level 0 is the standard strongly-connected
     variant *)
  for v = 0 to m - 1 do
    d.(0).(v) <- 0
  done;
  for k = 1 to m do
    List.iter
      (fun (u, v, len) ->
        if d.(k - 1).(u) > neg && d.(k - 1).(u) + len > d.(k).(v) then
          d.(k).(v) <- d.(k - 1).(u) + len)
      edges
  done;
  (* max over v of min over k of (d_m(v) - d_k(v)) / (m - k) *)
  let best = ref None in
  for v = 0 to m - 1 do
    if d.(m).(v) > neg then begin
      let worst = ref None in
      for k = 0 to m - 1 do
        if d.(k).(v) > neg then begin
          let r = Rat.make (d.(m).(v) - d.(k).(v)) (m - k) in
          match !worst with
          | None -> worst := Some r
          | Some w -> if Rat.( < ) r w then worst := Some r
        end
      done;
      match (!worst, !best) with
      | Some w, None -> best := Some w
      | Some w, Some b -> if Rat.( > ) w b then best := Some w
      | None, _ -> ()
    end
  done;
  !best

let max_mean ~n ~edges =
  let succ =
    let out = Array.make n [] in
    Array.iter (fun (s, d, _) -> out.(s) <- d :: out.(s)) edges;
    fun v -> out.(v)
  in
  let scc = Scc.compute ~n ~succ in
  let nontrivial = Array.make scc.Scc.count false in
  Array.iter
    (fun (s, d, _) ->
      if scc.Scc.comp.(s) = scc.Scc.comp.(d) then nontrivial.(scc.Scc.comp.(s)) <- true)
    edges;
  let best = ref None in
  for c = 0 to scc.Scc.count - 1 do
    if nontrivial.(c) then begin
      let members = scc.Scc.members.(c) in
      let m = Array.length members in
      let renum = Hashtbl.create m in
      Array.iteri (fun i v -> Hashtbl.replace renum v i) members;
      let local =
        Array.to_list edges
        |> List.filter_map (fun (s, d, len) ->
               if scc.Scc.comp.(s) = c && scc.Scc.comp.(d) = c then
                 Some (Hashtbl.find renum s, Hashtbl.find renum d, len)
               else None)
      in
      match (scc_max_mean m local, !best) with
      | Some r, None -> best := Some r
      | Some r, Some b -> if Rat.( > ) r b then best := Some r
      | None, _ -> ()
    end
  done;
  !best
