open Circuit

(* observability (doc/OBSERVABILITY.md): how often the isolation test runs
   and how often it prunes a probe as infeasible *)
let c_checks = Obs.Counter.make "pld.checks"
let c_prunes = Obs.Counter.make "pld.prunes"
let s_check = Obs.Span.make "pld.check"

let all_isolated nl ~slab ~p ~q ~members ~in_scc =
  Obs.Counter.incr c_checks;
  Obs.Span.time s_check @@ fun () ->
  (* supporters of v: fanins u with l(u) - phi*w + 1 >= l(v), scaled by q *)
  let grounded v = slab.(v) <= q in
  let supporters v =
    if grounded v then []
    else
      Array.to_list (Netlist.fanins nl v)
      |> List.filter_map (fun (u, w) ->
             if slab.(u) - (p * w) + q >= slab.(v) then Some u else None)
  in
  let supported = Hashtbl.create (Array.length members) in
  (* seed: members grounded directly *)
  Array.iter
    (fun v ->
      if grounded v then Hashtbl.replace supported v ()
      else if List.exists (fun u -> not (in_scc u)) (supporters v) then
        Hashtbl.replace supported v ())
    members;
  (* propagate support along Gπ edges inside the SCC *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if not (Hashtbl.mem supported v) then
          if
            List.exists
              (fun u -> in_scc u && Hashtbl.mem supported u)
              (supporters v)
          then begin
            Hashtbl.replace supported v ();
            changed := true
          end)
      members
  done;
  let isolated = Array.for_all (fun v -> not (Hashtbl.mem supported v)) members in
  if isolated then Obs.Counter.incr c_prunes;
  isolated
