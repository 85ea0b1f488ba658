type t = { name : string; mutable n : int }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let make name =
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = { name; n = 0 } in
      Hashtbl.replace registry name c;
      c

let name c = c.name
let value c = c.n

(* Request-scope shards (installed by Obs.Scope.run).  The global
   registry is unsynchronized, so a worker domain must never mutate it;
   inside a scope, increments land in the scope's domain-local table and
   fold into the registry when the scope closes.  A cell keeps the
   additive part and the high-water part separately — Counter exposes
   both [add] and [record_max], and the two merge differently (sum vs
   max). *)
type cell = { mutable adds : int; mutable peak : int }
type shard = (string, cell) Hashtbl.t

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_shard () : shard = Hashtbl.create 32
let set_shard s = Domain.DLS.set shard_key s

let cell_of sh name =
  match Hashtbl.find_opt sh name with
  | Some cell -> cell
  | None ->
      let cell = { adds = 0; peak = 0 } in
      Hashtbl.replace sh name cell;
      cell

let merge_shard sh =
  Hashtbl.iter
    (fun name cell ->
      let c = make name in
      c.n <- c.n + cell.adds;
      if cell.peak > c.n then c.n <- cell.peak)
    sh;
  Hashtbl.reset sh

let shard_contents (sh : shard) =
  Hashtbl.fold
    (fun name cell acc -> (name, max cell.adds cell.peak) :: acc)
    sh []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let incr c =
  if State.on () then
    match Domain.DLS.get shard_key with
    | None -> c.n <- c.n + 1
    | Some sh ->
        let cell = cell_of sh c.name in
        cell.adds <- cell.adds + 1

let add c k =
  if k < 0 then invalid_arg "Obs.Counter.add: negative increment";
  if State.on () then
    match Domain.DLS.get shard_key with
    | None -> c.n <- c.n + k
    | Some sh ->
        let cell = cell_of sh c.name in
        cell.adds <- cell.adds + k

let record_max c v =
  if State.on () then
    match Domain.DLS.get shard_key with
    | None -> if v > c.n then c.n <- v
    | Some sh ->
        let cell = cell_of sh c.name in
        if v > cell.peak then cell.peak <- v
let find key = Option.map value (Hashtbl.find_opt registry key)

let all () =
  Hashtbl.fold (fun _ c acc -> (c.name, c.n) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_all () = Hashtbl.iter (fun _ c -> c.n <- 0) registry
