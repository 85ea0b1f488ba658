(* Random K-bounded sequential circuits for property tests, shared by
   the test executables.  [seq rng ~pis ~gates ~max_arity]: every gate
   has 1 to [max_arity] fanins; a fanin is, with probability 1/3, a
   registered edge (1 or 2 registers) to any PI or gate, feedback
   included, and otherwise a combinational edge to a PI or an earlier
   gate, so there is no combinational loop.  Two POs. *)

open Prelude
open Logic
open Circuit

let seq rng ~pis ~gates ~max_arity =
  let nl = Netlist.create ~name:"rand" () in
  let pi_ids = Array.init pis (fun i -> Netlist.add_pi ~name:(Printf.sprintf "x%d" i) nl) in
  let gate_ids = Array.init gates (fun i -> Netlist.reserve_gate ~name:(Printf.sprintf "g%d" i) nl) in
  for i = 0 to gates - 1 do
    let arity = 1 + Rng.int rng max_arity in
    let fanins =
      Array.init arity (fun _ ->
          if Rng.int rng 3 = 0 then
            (* registered edge to anywhere, including feedback *)
            (Rng.pick rng (Array.append pi_ids gate_ids), 1 + Rng.int rng 2)
          else begin
            (* combinational edge to an earlier node only *)
            let pool =
              Array.append pi_ids (Array.sub gate_ids 0 i)
            in
            (Rng.pick rng pool, 0)
          end)
    in
    Netlist.define_gate nl gate_ids.(i)
      (Truthtable.random_nondegenerate rng arity)
      fanins
  done;
  for j = 0 to 1 do
    ignore
      (Netlist.add_po ~name:(Printf.sprintf "y%d" j) nl
         ~driver:(Rng.pick rng gate_ids) ~weight:(Rng.int rng 2))
  done;
  nl
