open Prelude

type impl =
  | Cut of int array
  | Resyn of Decomp.Decompose.tree * int array

type result = {
  labels : int array;
  impls : impl option array;
  resyn_nodes : int;
}

let dedup arr =
  let seen = Hashtbl.create 8 in
  Array.of_list
    (List.filter
       (fun u ->
         if Hashtbl.mem seen u then false
         else begin
           Hashtbl.replace seen u ();
           true
         end)
       (Array.to_list arr))

(* Build the K-cut spec for the cone of [v]: cut nodes must have label
   <= target - 1, i.e. nodes with label >= target go to the sink side. *)
let cone_spec t labels v ~target =
  let cone = Comb.cone t v in
  let cone_arr = Array.of_list cone in
  let local = Hashtbl.create (Array.length cone_arr) in
  Array.iteri (fun i u -> Hashtbl.replace local u i) cone_arr;
  let nn = Array.length cone_arr in
  let edges = ref [] in
  Array.iteri
    (fun i u ->
      Array.iter
        (fun w ->
          match Hashtbl.find_opt local w with
          | Some j -> edges := (j, i) :: !edges
          | None -> assert false)
        t.Comb.fanins.(u))
    cone_arr;
  let sink_side =
    Array.map (fun u -> labels.(u) >= target || u = v) cone_arr
  in
  let sources =
    List.filteri
      (fun i _ -> t.Comb.kind.(cone_arr.(i)) = Comb.In)
      (Array.to_list (Array.init nn Fun.id))
  in
  ( { Flow.Kcut.n = nn; edges = Array.of_list !edges; sink_side; sources },
    cone_arr )

let compute ?(resynthesize = false) ?(cmax = 15) ?(exhaustive = false) t ~k =
  if k < 2 || k > Logic.Truthtable.max_arity then invalid_arg "Labels: k";
  Comb.validate t;
  Array.iteri
    (fun v fi ->
      match t.Comb.kind.(v) with
      | Comb.Gate _ ->
          if Array.length (dedup fi) > k then
            invalid_arg "Labels: circuit is not K-bounded"
      | Comb.In -> ())
    t.Comb.fanins;
  let n = Comb.n t in
  let labels = Array.make n 0 in
  let impls = Array.make n None in
  let order = Comb.topo_order t in
  let arena = Flow.Kcut.new_arena () in
  (* one BDD manager for every resynthesis of the call, reset per cone;
     created at the first one *)
  let bdd = lazy (Bdd.new_man ()) in
  (* one node's labeling step, in topological order: its cone's labels
     are final *)
  let node v =
    match t.Comb.kind.(v) with
    | Comb.In -> labels.(v) <- 0
    | Comb.Gate _ ->
        let fanins = dedup t.Comb.fanins.(v) in
        let p = Array.fold_left (fun acc u -> max acc labels.(u)) 0 fanins in
        if p = 0 then begin
          labels.(v) <- 1;
          impls.(v) <- Some (Cut fanins)
        end
        else begin
          let spec, cone_arr = cone_spec t labels v ~target:p in
          (* One flow answers both questions: with resynthesis on, the
             limit [max k cmax] leaves a flow of at most [k] unchanged
             ([max_flow ~limit] only stops early once the flow exceeds
             the limit), and on the failing side the continued run is
             the min cut the resynthesis fallback decomposes (so a [Cut]
             wider than [k] arrives only with resynthesis on).  A cut
             wider than [cmax] is no candidate, so stopping there loses
             nothing. *)
          let kreq = if resynthesize then max k cmax else k in
          match Flow.Kcut.find ~arena spec ~k:kreq with
          | Flow.Kcut.Cut c when List.length c <= k ->
              labels.(v) <- p;
              impls.(v) <-
                Some (Cut (Array.of_list (List.map (fun i -> cone_arr.(i)) c)))
          | verdict ->
              let resyn =
                match verdict with
                | Flow.Kcut.Cut c -> (
                    let inputs =
                      Array.of_list (List.map (fun i -> cone_arr.(i)) c)
                    in
                    let man = Lazy.force bdd in
                    Bdd.lease man @@ fun () ->
                    let vars = Array.init (Array.length inputs) Fun.id in
                    let f = Comb.cone_bdd man t ~root:v ~inputs ~vars in
                    let arrivals =
                      Array.map (fun u -> Rat.of_int labels.(u)) inputs
                    in
                    match
                      Decomp.Decompose.decompose ~exhaustive man ~f ~vars
                        ~arrivals ~k
                    with
                    | Some r when Rat.(r.Decomp.Decompose.level <= of_int p) ->
                        Some (Resyn (r.Decomp.Decompose.tree, inputs))
                    | _ -> None)
                | Flow.Kcut.Exceeds -> None
              in
              (match resyn with
              | Some impl ->
                  labels.(v) <- p;
                  impls.(v) <- Some impl
              | None ->
                  labels.(v) <- p + 1;
                  impls.(v) <- Some (Cut fanins))
        end
  in
  Array.iter node order;
  let resyn_nodes =
    Array.fold_left
      (fun acc -> function Some (Resyn _) -> acc + 1 | _ -> acc)
      0 impls
  in
  { labels; impls; resyn_nodes }
