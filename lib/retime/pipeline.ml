open Circuit

let period_lower_bound nl =
  match Netlist.mdr_ratio nl with
  | Graphs.Cycle_ratio.Infinite -> `Infinite
  | Graphs.Cycle_ratio.No_cycle -> `Period 1
  | Graphs.Cycle_ratio.Ratio r -> `Period (max 1 (Prelude.Rat.ceil r))

let lags_at nl ~period =
  let n = Netlist.n nl in
  let r = Array.make n 0 in
  let weight v j = Retiming.retimed_weight nl r v j in
  let max_iter = (4 * n) + 64 in
  let rec iterate remaining =
    if remaining = 0 then
      (* cannot happen when period >= the loop bound (FEAS converges in
         O(n) iterations) *)
      invalid_arg "Pipeline.lags_at: did not converge"
    else
      match Retiming.delta nl ~weight with
      | None ->
          (* cycle weights are retiming-invariant, so a zero-weight cycle
             here implies one in the input, excluded by the loop bound *)
          invalid_arg "Pipeline.lags_at: combinational loop"
      | Some dl ->
          let any = ref false in
          for v = 0 to n - 1 do
            if dl.(v) > period && Netlist.kind nl v <> Netlist.Pi then begin
              r.(v) <- r.(v) + 1;
              any := true
            end
          done;
          if !any then iterate (remaining - 1)
  in
  iterate max_iter;
  assert (Retiming.legal nl ~r);
  r

let retime_to_period nl ~period =
  match period_lower_bound nl with
  | `Infinite -> None
  | `Period lb when period < lb -> None
  | `Period _ -> Some (lags_at nl ~period)

let min_period nl =
  match period_lower_bound nl with
  | `Infinite -> invalid_arg "Pipeline.min_period: combinational loop"
  | `Period lb -> (lb, lags_at nl ~period:lb)

let latency nl ~r =
  List.fold_left (fun acc po -> max acc r.(po)) 0 (Netlist.pos nl)
