(* The whole-circuit form of [Retime.Retiming.minimize_ffs], kept as the
   test oracle for its local checks: every ±1 lag trial rescans the
   legality of every edge, runs a full arrival-time pass and recounts
   every register.  Same visiting order, same first-improvement rule. *)

open Circuit
open Retime

let period_of nl r =
  match Retiming.delta nl ~weight:(Retiming.retimed_weight nl r) with
  | None -> max_int
  | Some dl -> Array.fold_left max 0 dl

let reference_minimize_ffs nl ~period ~r =
  if not (Retiming.legal nl ~r) then invalid_arg "reference: illegal lags";
  let r = Array.copy r in
  let best = ref (Retiming.ff_count nl ~r) in
  let gates = Netlist.gates nl in
  let improved = ref true in
  let rounds = ref (Netlist.n nl * 4) in
  while !improved && !rounds > 0 do
    decr rounds;
    improved := false;
    List.iter
      (fun v ->
        List.iter
          (fun delta_r ->
            r.(v) <- r.(v) + delta_r;
            let better =
              Retiming.legal nl ~r
              && period_of nl r <= period
              && Retiming.ff_count nl ~r < !best
            in
            if better then begin
              best := Retiming.ff_count nl ~r;
              improved := true
            end
            else r.(v) <- r.(v) - delta_r)
          [ 1; -1 ])
      gates
  done;
  r
