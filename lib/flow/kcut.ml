type spec = {
  n : int;
  edges : (int * int) array;
  sink_side : bool array;
  sources : int list;
}

type result = Cut of int list | Exceeds

(* A reusable flow network: cleared and re-filled per cut test instead of
   allocated, so the max-flow decisions of one label engine share one set
   of arrays.  [busy] is an ownership tripwire: an arena belongs to one
   solve at a time (one label run, or one serve worker's); a second
   solve observing it raises instead of corrupting the network. *)
type arena = { mutable net : Maxflow.t option; mutable busy : bool }

let new_arena () = { net = None; busy = false }

let arena_net arena n =
  match arena with
  | None -> Maxflow.create n
  | Some a -> (
      if a.busy then
        invalid_arg
          "Kcut: arena is owned by an in-flight solve — two label runs \
           are sharing one arena (doc/CONCURRENCY.md: one arena per label \
           run)";
      a.busy <- true;
      match a.net with
      | Some net -> Maxflow.clear net n
      | None ->
          let net = Maxflow.create n in
          a.net <- Some net;
          net)

let arena_release = function
  | None -> ()
  | Some a -> a.busy <- false

let validate spec =
  if Array.length spec.sink_side <> spec.n then
    invalid_arg "Kcut: sink_side length mismatch";
  if not (Array.exists Fun.id spec.sink_side) then
    invalid_arg "Kcut: empty sink side";
  Array.iter
    (fun (u, v) ->
      if u < 0 || u >= spec.n || v < 0 || v >= spec.n then
        invalid_arg "Kcut: edge endpoint out of range")
    spec.edges;
  List.iter
    (fun s ->
      if s < 0 || s >= spec.n then invalid_arg "Kcut: source out of range")
    spec.sources

let find ?arena spec ~k =
  validate spec;
  if List.exists (fun s -> spec.sink_side.(s)) spec.sources then Exceeds
  else begin
    Fun.protect ~finally:(fun () -> arena_release arena) @@ fun () ->
    (* v_in = 2v, v_out = 2v+1, super-source = 2n, sink = 2n+1 *)
    let net = arena_net arena ((2 * spec.n) + 2) in
    let s' = 2 * spec.n and t' = (2 * spec.n) + 1 in
    for v = 0 to spec.n - 1 do
      if not spec.sink_side.(v) then
        Maxflow.add_edge net ~src:(2 * v) ~dst:((2 * v) + 1) ~cap:1
    done;
    Array.iter
      (fun (u, v) ->
        if not spec.sink_side.(u) then
          if spec.sink_side.(v) then
            Maxflow.add_edge net ~src:((2 * u) + 1) ~dst:t' ~cap:Maxflow.infinity
          else
            Maxflow.add_edge net ~src:((2 * u) + 1) ~dst:(2 * v)
              ~cap:Maxflow.infinity)
      spec.edges;
    List.iter
      (fun v -> Maxflow.add_edge net ~src:s' ~dst:(2 * v) ~cap:Maxflow.infinity)
      spec.sources;
    let flow = Maxflow.max_flow net ~s:s' ~t:t' ~limit:k in
    if flow > k then Exceeds
    else begin
      let reach = Maxflow.residual_reachable net ~s:s' in
      let cut = ref [] in
      for v = spec.n - 1 downto 0 do
        if (not spec.sink_side.(v)) && reach (2 * v) && not (reach ((2 * v) + 1))
        then cut := v :: !cut
      done;
      Cut !cut
    end
  end

