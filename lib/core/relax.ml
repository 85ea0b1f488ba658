open Prelude
open Circuit

let dedup_fanins nl v =
  let seen = Hashtbl.create 8 in
  Array.of_list
    (List.filter
       (fun p ->
         if Hashtbl.mem seen p then false
         else begin
           Hashtbl.replace seen p ();
           true
         end)
       (Array.to_list (Netlist.fanins nl v)))

let meets_phi nl phi =
  match Netlist.mdr_ratio nl with
  | Graphs.Cycle_ratio.Ratio r -> Rat.( <= ) r phi
  | Graphs.Cycle_ratio.No_cycle -> true
  | Graphs.Cycle_ratio.Infinite -> false

let relax nl ~impls ~phi =
  let current = Array.copy impls in
  (* every candidate differs from the last in one gate: build each LUT's
     truth table once for the whole call *)
  let memo = Seqmap.Mapgen.new_memo () in
  let best = ref (Seqmap.Mapgen.generate ~memo nl ~impls:current) in
  let relaxed = ref 0 in
  Array.iteri
    (fun v impl ->
      match impl with
      | Some (Seqmap.Label_engine.Resyn _) -> (
          let saved = current.(v) in
          current.(v) <- Some (Seqmap.Label_engine.Cut (dedup_fanins nl v));
          let candidate = Seqmap.Mapgen.generate ~memo nl ~impls:current in
          (* accept only if the ratio target holds and the trade (tree LUTs
             out, newly-needed plain LUTs in) does not grow the mapping *)
          if
            meets_phi candidate phi
            && Seqmap.Mapgen.lut_count candidate
               <= Seqmap.Mapgen.lut_count !best
          then begin
            best := candidate;
            incr relaxed
          end
          else current.(v) <- saved)
      | _ -> ())
    impls;
  (!best, !relaxed)
