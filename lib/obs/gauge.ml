(* Point-in-time values (pool sizes, request concurrency).  Same
   registry discipline as Counter, but set semantics and no
   monotonicity guarantee. *)

type t = { name : string; mutable v : float }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let make name =
  match Hashtbl.find_opt registry name with
  | Some g -> g
  | None ->
      let g = { name; v = 0. } in
      Hashtbl.replace registry name g;
      g

let set_int g v = if State.on () then g.v <- float_of_int v

let all () =
  Hashtbl.fold (fun _ g acc -> (g.name, g.v) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () = Hashtbl.iter (fun _ g -> g.v <- 0.) registry
