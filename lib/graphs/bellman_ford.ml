type edge = { src : int; dst : int; len : int }

let has_positive_cycle ~n ~edges =
  (* All-zero initialization is equivalent to a virtual source with 0-length
     edges to every node: any positive cycle keeps relaxing forever. *)
  let dist = Array.make n 0 in
  let changed = ref true in
  let pass = ref 0 in
  let result = ref false in
  while !changed && not !result do
    changed := false;
    Array.iter
      (fun { src; dst; len } ->
        if dist.(src) + len > dist.(dst) then begin
          dist.(dst) <- dist.(src) + len;
          changed := true
        end)
      edges;
    incr pass;
    if !changed && !pass >= n then result := true
  done;
  !result
