open Prelude
open Logic

(* observability (doc/OBSERVABILITY.md): bound-set search effort and BDD
   pressure of the functional-decomposition engine *)
let c_calls = Obs.Counter.make "decomp.calls"
let c_successes = Obs.Counter.make "decomp.successes"
let c_trials = Obs.Counter.make "decomp.bound_set_trials"
let c_two_wire = Obs.Counter.make "decomp.two_wire_extractions"
let c_bdd_peak = Obs.Counter.make "decomp.bdd_peak_nodes"
let h_bound_set = Obs.Histogram.make "decomp.bound_set_size"

type tree = Input of int | Lut of Truthtable.t * tree array

type result = { tree : tree; level : Rat.t; luts : int }

let rec tree_level ~arrivals = function
  | Input i -> arrivals.(i)
  | Lut (_, [||]) -> Rat.zero
  | Lut (_, fanins) ->
      let m =
        Array.fold_left
          (fun acc t -> Rat.max acc (tree_level ~arrivals t))
          (tree_level ~arrivals fanins.(0))
          fanins
      in
      Rat.add m Rat.one

let rec tree_luts = function
  | Input _ -> 0
  | Lut (_, fanins) -> 1 + Array.fold_left (fun acc t -> acc + tree_luts t) 0 fanins

let rec eval_tree t env =
  match t with
  | Input i -> env i
  | Lut (tt, fanins) ->
      Truthtable.eval tt (Array.map (fun f -> eval_tree f env) fanins)

(* live inputs during the loop *)
type live = { var : int; arrival : Rat.t; t : tree }

(* All size-[s] subsets of [0, limit), as ascending index lists, in
   lexicographic order. *)
let subsets_of_size limit s =
  let rec go start chosen acc =
    if List.length chosen = s then List.rev chosen :: acc
    else if start >= limit then acc
    else
      let acc = go (start + 1) (start :: chosen) acc in
      go (start + 1) chosen acc
  in
  List.rev (go 0 [] [])

(* Candidate bound sets, as pool-index lists: earliest-prefixes of size
   k down to 2, then, when exhaustive, subsets of the pool — bounded
   widening: sizes k and k-1 only, the first 64 in lexicographic order,
   because unbounded subset enumeration dominates runtime on stuck
   cones. *)
let enumerate_candidates ~exhaustive ~pool ~k =
  let prefix = List.init (k - 1) (fun i -> List.init (k - i) Fun.id) in
  let extra =
    if not exhaustive then []
    else
      List.filteri
        (fun i _ -> i < 64)
        (List.concat_map
           (fun s -> if s >= 2 then subsets_of_size pool s else [])
           [ k; k - 1 ])
  in
  prefix @ extra

(* They depend on (exhaustive, pool, k) alone, so they are tabulated
   once, for k in 2..6 and pool in 0..k+3; the table is immutable, so
   every domain reads it freely. *)
let candidate_table =
  Array.init 2 (fun e ->
      Array.init (Truthtable.max_arity + 1) (fun k ->
          if k < 2 then [||]
          else
            Array.init (k + 4) (fun pool ->
                enumerate_candidates ~exhaustive:(e = 1) ~pool ~k)))

let bound_set_candidates ~exhaustive ~pool ~k =
  if k < 2 || k > Truthtable.max_arity || pool < 0 || pool > k + 3 then
    invalid_arg "Decompose.bound_set_candidates";
  candidate_table.(Bool.to_int exhaustive).(k).(pool)

let decompose ?(exhaustive = false) ?(multi = false) man ~f ~vars ~arrivals ~k =
  if k < 2 || k > Truthtable.max_arity then invalid_arg "Decompose: k";
  if Array.length vars <> Array.length arrivals then
    invalid_arg "Decompose: length mismatch";
  (* fresh BDD variables for extracted sub-functions *)
  let next_var = ref (max (Bdd.nvars man) (Array.fold_left max 0 vars + 1)) in
  let fresh () =
    let v = !next_var in
    incr next_var;
    v
  in
  let initial =
    Array.to_list
      (Array.mapi (fun i v -> { var = v; arrival = arrivals.(i); t = Input i }) vars)
  in
  let finish fn live =
    (* at most k live inputs: emit the root LUT *)
    let live = Array.of_list live in
    let lvars = Array.map (fun l -> l.var) live in
    let tt = Bdd.to_truthtable man fn lvars in
    let tt, support_vars = Truthtable.shrink_support tt in
    let fanins =
      Array.of_list (List.map (fun j -> live.(j).t) support_vars)
    in
    match (Truthtable.arity tt, fanins) with
    | 1, [| t |] when Truthtable.equal tt (Truthtable.var 1 0) ->
        t (* pure projection: no LUT needed *)
    | _ -> Lut (tt, fanins)
  in
  let rec loop fn live =
    (* keep only inputs in the support of fn *)
    let sup = Bdd.support man fn in
    let live = List.filter (fun l -> List.mem l.var sup) live in
    let m = List.length live in
    if m <= k then Some (finish fn live)
    else begin
      let sorted =
        Array.of_list
          (List.stable_sort (fun a b -> Rat.compare a.arrival b.arrival) live)
      in
      (* every candidate is drawn from the pool of the earliest inputs;
         one cofactor table of fn over the pool decides them all *)
      let pool = min m (if exhaustive then k + 3 else k) in
      let table =
        Bdd.cofactors man fn (Array.init pool (fun j -> sorted.(j).var))
      in
      let try_bound ~max_mu idx =
        Obs.Counter.incr c_trials;
        Obs.Histogram.observe_int h_bound_set (List.length idx);
        let mask = List.fold_left (fun acc j -> acc lor (1 lsl j)) 0 idx in
        if Classes.at_most table ~bound:mask ~mu:max_mu then begin
          (* the class table is materialized for the winner only *)
          let bset = List.map (fun j -> sorted.(j)) idx in
          let bound = Array.of_list (List.map (fun l -> l.var) bset) in
          Some (bset, Classes.compute man fn ~bound)
        end
        else None
      in
      let rec first ~max_mu = function
        | [] -> None
        | b :: rest -> (
            match try_bound ~max_mu b with
            | Some r -> Some r
            | None -> first ~max_mu rest)
      in
      let candidates = bound_set_candidates ~exhaustive ~pool ~k in
      let chosen =
        match first ~max_mu:2 candidates with
        | Some r -> Some r
        | None when multi ->
            (* two-wire extraction (the paper's future-work direction):
               a bound set of >= 3 inputs with at most 4 cofactor classes
               is replaced by two encoding wires *)
            first ~max_mu:4
              (List.filter (fun b -> List.length b >= 3) candidates)
        | None -> None
      in
      match chosen with
      | None -> None
      | Some (bset, cls) ->
          let bound = Array.of_list (List.map (fun l -> l.var) bset) in
          let nb = Array.length bound in
          let nclasses = Array.length cls.Classes.representatives in
          if nclasses = 1 then
            (* fn does not depend on the bound set after all (filtered by
               support above, so this cannot happen; defensive) *)
            loop cls.Classes.representatives.(0)
              (List.filter (fun l -> not (List.memq l bset)) live)
          else begin
            let g_arrival =
              match bset with
              | [] -> assert false
              | first_l :: rest ->
                  Rat.add
                    (List.fold_left
                       (fun acc l -> Rat.max acc l.arrival)
                       first_l.arrival rest)
                    Rat.one
            in
            (* one encoding wire per class-index bit *)
            let nwires = if nclasses <= 2 then 1 else 2 in
            if nwires = 2 then Obs.Counter.incr c_two_wire;
            let wire bit =
              let bits = ref 0L in
              Array.iteri
                (fun mth c ->
                  if c land (1 lsl bit) <> 0 then
                    bits := Int64.logor !bits (Int64.shift_left 1L mth))
                cls.Classes.class_of;
              let g_tt = Truthtable.create nb !bits in
              let g_tt, g_sup = Truthtable.shrink_support g_tt in
              let g_fanins =
                Array.of_list (List.map (fun j -> (List.nth bset j).t) g_sup)
              in
              let y = fresh () in
              { var = y; arrival = g_arrival; t = Lut (g_tt, g_fanins) }
            in
            let wires = List.init nwires wire in
            (* fn' selects the class representative from the wire values *)
            let rep c =
              if c < nclasses then cls.Classes.representatives.(c)
              else cls.Classes.representatives.(0) (* unused encoding *)
            in
            let fn' =
              match wires with
              | [ w0 ] ->
                  Bdd.ite man (Bdd.var man w0.var) (rep 1) (rep 0)
              | [ w0; w1 ] ->
                  Bdd.ite man (Bdd.var man w1.var)
                    (Bdd.ite man (Bdd.var man w0.var) (rep 3) (rep 2))
                    (Bdd.ite man (Bdd.var man w0.var) (rep 1) (rep 0))
              | _ -> assert false
            in
            let live' =
              wires @ List.filter (fun l -> not (List.memq l bset)) live
            in
            loop fn' live'
          end
    end
  in
  Obs.Counter.incr c_calls;
  let result = loop f initial in
  Obs.Counter.record_max c_bdd_peak (Bdd.num_nodes man);
  match result with
  | None -> None
  | Some tree ->
      Obs.Counter.incr c_successes;
      Some { tree; level = tree_level ~arrivals tree; luts = tree_luts tree }
