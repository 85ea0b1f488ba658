let sort ~n ~succ =
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun w -> indeg.(w) <- indeg.(w) + 1) (succ v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!k) <- v;
    incr k;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      (succ v)
  done;
  if !k = n then Some order else None

let sort_exn ~n ~succ =
  match sort ~n ~succ with
  | Some o -> o
  | None -> invalid_arg "Topo.sort_exn: graph has a cycle"
