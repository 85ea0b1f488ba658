type node_kind = In | Gate of Logic.Truthtable.t

type t = {
  kind : node_kind array;
  fanins : int array array;
}

let n t = Array.length t.kind

let succ t =
  let out = Array.make (n t) [] in
  Array.iteri
    (fun v fi -> Array.iter (fun u -> out.(u) <- v :: out.(u)) fi)
    t.fanins;
  fun v -> out.(v)

let validate t =
  if Array.length t.fanins <> n t then invalid_arg "Comb: length mismatch";
  Array.iteri
    (fun v fi ->
      (match t.kind.(v) with
      | In ->
          if Array.length fi <> 0 then invalid_arg "Comb: input with fanins"
      | Gate f ->
          if Logic.Truthtable.arity f <> Array.length fi then
            invalid_arg "Comb: arity mismatch");
      Array.iter
        (fun u -> if u < 0 || u >= n t then invalid_arg "Comb: bad fanin id")
        fi)
    t.fanins;
  match Graphs.Topo.sort ~n:(n t) ~succ:(succ t) with
  | Some _ -> ()
  | None -> invalid_arg "Comb: cyclic"

let topo_order t = Graphs.Topo.sort_exn ~n:(n t) ~succ:(succ t)

let cone t v =
  let seen = Hashtbl.create 64 in
  let rec go v acc =
    if Hashtbl.mem seen v then acc
    else begin
      Hashtbl.replace seen v ();
      Array.fold_left (fun acc u -> go u acc) (v :: acc) t.fanins.(v)
    end
  in
  go v []

let cone_bdd man t ~root ~inputs ~vars =
  if Array.length inputs <> Array.length vars then
    invalid_arg "Comb.cone_bdd: length mismatch";
  let memo = Hashtbl.create 32 in
  Array.iteri (fun j u -> Hashtbl.replace memo u (Bdd.var man vars.(j))) inputs;
  let rec go v =
    match Hashtbl.find_opt memo v with
    | Some b -> b
    | None ->
        let b =
          match t.kind.(v) with
          | In -> invalid_arg "Comb.cone_bdd: path escapes the cut"
          | Gate f -> Bdd.apply_truthtable man f (Array.map go t.fanins.(v))
        in
        Hashtbl.replace memo v b;
        b
  in
  go root
