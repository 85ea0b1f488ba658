(* The label-engine stages of [Synth.run] for TurboMap and TurboSYN,
   called directly and shared by the test executables: the ratio search,
   the final label run at phi* on the search's resynthesis cache and cut
   memo, and mapping generation.  [map opts nl] returns the mapping
   before relaxation and area recovery, phi* and the per-gate
   implementations the mapping was generated from. *)

open Seqmap

let map ?phi_max_den opts nl =
  let cache = Label_engine.new_cache () in
  let cutmemo = Label_engine.new_cut_memo nl in
  let phi, _, _ =
    Turbomap.minimum_ratio ~cache ~cutmemo ?phi_max_den opts nl
  in
  match fst (Label_engine.run ~cache ~cutmemo opts nl ~phi) with
  | Label_engine.Infeasible -> failwith "Stages.map: final labels infeasible"
  | Label_engine.Feasible { impls; _ } ->
      let mapped = Mapgen.generate nl ~impls in
      Circuit.Netlist.validate_exn ~k:opts.Label_engine.k mapped;
      (mapped, phi, impls)
