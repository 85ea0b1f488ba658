module Circuit_json = Circuit_json
module Diff = Diff
open Prelude
open Circuit
module J = Obs.Json
module LE = Seqmap.Label_engine

(* observability (doc/OBSERVABILITY.md): evidence production and checking *)
let c_certificates = Obs.Counter.make "audit.certificates"
let c_checks = Obs.Counter.make "audit.checks"
let c_check_failures = Obs.Counter.make "audit.check_failures"
let s_build = Obs.Span.make "audit.build"
let s_verify = Obs.Span.make "audit.verify"

let schema_version = "turbosyn-audit/2"

let algo_string = function
  | `Turbosyn -> "turbosyn"
  | `Turbomap -> "turbomap"
  | `Flowsyn_s -> "flowsyn-s"

(* ------------------------------------------------------------------ *)
(* Document production                                                 *)
(* ------------------------------------------------------------------ *)

let pairs_json cut =
  J.List
    (Array.to_list
       (Array.map (fun (u, w) -> J.List [ J.Int u; J.Int w ]) cut))

let prov_json (p : LE.prov) =
  J.Obj
    [
      ( "source",
        match p.LE.p_source with
        | LE.From_cut_test -> J.Str "cut_test"
        | LE.From_snapshot -> J.Str "snapshot"
        | LE.From_recorded -> J.Str "recorded"
        | LE.From_resyn h -> J.Obj [ ("resyn", J.Int h) ] );
      ("cut", pairs_json p.LE.p_cut);
      ("height", Circuit_json.rat_to_json p.LE.p_height);
      ("label", Circuit_json.rat_to_json p.LE.p_label);
      ("iteration", J.Int p.LE.p_iteration);
    ]

let certificate_json mapped =
  let edges = Netlist.retiming_edges mapped in
  match Graphs.Cycle_ratio.critical_cycle ~n:(Netlist.n mapped) ~edges with
  | `No_cycle -> Ok J.Null
  | `Infinite -> Error "mapped netlist has a combinational loop"
  | `Cycle c ->
      Ok
        (J.Obj
           [
             ("ratio", Circuit_json.rat_to_json c.Graphs.Cycle_ratio.c_ratio);
             ("delay", J.Int c.Graphs.Cycle_ratio.c_delay);
             ("weight", J.Int c.Graphs.Cycle_ratio.c_weight);
             ( "nodes",
               J.List
                 (List.map (fun v -> J.Int v) c.Graphs.Cycle_ratio.c_nodes) );
             ( "edges",
               J.List
                 (List.map
                    (fun (e : Graphs.Cycle_ratio.edge) ->
                      J.Obj
                        [
                          ("src", J.Int e.Graphs.Cycle_ratio.src);
                          ("dst", J.Int e.Graphs.Cycle_ratio.dst);
                          ("delay", J.Int e.Graphs.Cycle_ratio.delay);
                          ("weight", J.Int e.Graphs.Cycle_ratio.weight);
                        ])
                    c.Graphs.Cycle_ratio.c_edges) );
           ])

let build ~source ~(options : Turbosyn.Synth.options)
    (r : Turbosyn.Synth.result) =
  Obs.Span.time s_build @@ fun () ->
  match (r.Turbosyn.Synth.lags, r.Turbosyn.Synth.realized) with
  | None, _ | _, None ->
      Error "result has no realization (combinational loop in the mapping?)"
  | Some lags, Some _ -> (
      match certificate_json r.Turbosyn.Synth.mapped with
      | Error e -> Error e
      | Ok cert ->
          Obs.Counter.incr c_certificates;
          let labels_json =
            match r.Turbosyn.Synth.labels with
            | None -> J.Null
            | Some ls ->
                J.List
                  (Array.to_list (Array.map Circuit_json.rat_to_json ls))
          in
          let provenance_json =
            match r.Turbosyn.Synth.prov with
            | None -> J.Null
            | Some ps ->
                J.List
                  (Array.to_list
                     (Array.map
                        (function None -> J.Null | Some p -> prov_json p)
                        ps))
          in
          Ok
            (J.Obj
               [
                 ("schema", J.Str schema_version);
                 ("circuit", J.Str (Netlist.name source));
                 ("algo", J.Str (algo_string r.Turbosyn.Synth.algo));
                 ("k", J.Int options.Turbosyn.Synth.k);
                 ("cmax", J.Int options.Turbosyn.Synth.cmax);
                 ("phi", Circuit_json.rat_to_json r.Turbosyn.Synth.phi);
                 ("clock_period", J.Int r.Turbosyn.Synth.clock_period);
                 ("latency", J.Int r.Turbosyn.Synth.latency);
                 ("luts", J.Int r.Turbosyn.Synth.luts);
                 ("source", Circuit_json.to_json source);
                 ("mapped", Circuit_json.to_json r.Turbosyn.Synth.mapped);
                 ("certificate", cert);
                 ( "witness",
                   J.Obj
                     [
                       ("period", J.Int r.Turbosyn.Synth.clock_period);
                       ("latency", J.Int r.Turbosyn.Synth.latency);
                       ( "lags",
                         J.List
                           (Array.to_list
                              (Array.map (fun l -> J.Int l) lags)) );
                     ] );
                 ("labels", labels_json);
                 ("provenance", provenance_json);
               ]))

(* ------------------------------------------------------------------ *)
(* Independent verification.                                           *)
(*                                                                     *)
(* Nothing here calls into the label engine: the certificate is        *)
(* re-checked edge by edge against the mapped netlist plus the         *)
(* [exceeds] oracle, the witness by replaying the retiming, the        *)
(* equivalence by simulation, and the provenance against the label     *)
(* fixpoint invariant and per-cut arithmetic recomputed from the       *)
(* document alone.                                                     *)
(* ------------------------------------------------------------------ *)

type check = { c_name : string; c_ok : bool; c_detail : string }
type verdict = { v_ok : bool; v_checks : check list }

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let member name j =
  match J.member name j with
  | Some v -> v
  | None -> failf "missing member %S" name

let jstr name j =
  match member name j with
  | J.Str s -> s
  | _ -> failf "member %S: expected a string" name

let jint name j =
  match member name j with
  | J.Int i -> i
  | _ -> failf "member %S: expected an integer" name

let jrat name j =
  match Circuit_json.rat_of_json (member name j) with
  | Ok r -> r
  | Error e -> failf "member %S: %s" name e

let jints name j =
  match member name j with
  | J.List l ->
      Array.of_list
        (List.map
           (function J.Int i -> i | _ -> failf "member %S: expected ints" name)
           l)
  | _ -> failf "member %S: expected a list" name

let jpairs name j =
  match member name j with
  | J.List l ->
      Array.of_list
        (List.map
           (function
             | J.List [ J.Int u; J.Int w ] -> (u, w)
             | _ -> failf "member %S: expected [int, int] pairs" name)
           l)
  | _ -> failf "member %S: expected a list" name

(* A check either passes, or fails with the first offending detail. *)
let check name f =
  match f () with
  | () -> { c_name = name; c_ok = true; c_detail = "" }
  | exception Bad d -> { c_name = name; c_ok = false; c_detail = d }
  | exception Invalid_argument d -> { c_name = name; c_ok = false; c_detail = d }

let check_certificate doc mapped phi period =
  let n = Netlist.n mapped in
  let edges = Netlist.retiming_edges mapped in
  match member "certificate" doc with
  | J.Null -> (
      (* acyclic claim: the mapped graph must really have no cycle *)
      match Netlist.mdr_ratio mapped with
      | Graphs.Cycle_ratio.No_cycle ->
          if period <> 1 then
            failf "acyclic mapping must realize period 1, document says %d"
              period
      | _ -> failf "certificate is null but the mapped netlist has cycles")
  | cert ->
      let ratio = jrat "ratio" cert in
      let delay = jint "delay" cert in
      let weight = jint "weight" cert in
      let nodes = jints "nodes" cert in
      let ce =
        match member "edges" cert with
        | J.List l ->
            List.map
              (fun e ->
                {
                  Graphs.Cycle_ratio.src = jint "src" e;
                  dst = jint "dst" e;
                  delay = jint "delay" e;
                  weight = jint "weight" e;
                })
              l
        | _ -> failf "certificate edges: expected a list"
      in
      if ce = [] then failf "certificate has no edges";
      (* every claimed edge must exist in the mapped netlist *)
      List.iter
        (fun (e : Graphs.Cycle_ratio.edge) ->
          if e.dst < 0 || e.dst >= n || e.src < 0 || e.src >= n then
            failf "certificate edge %d->%d: node out of range" e.src e.dst;
          if Netlist.delay mapped e.dst <> e.delay then
            failf "certificate edge %d->%d: delay %d does not match the node"
              e.src e.dst e.delay;
          let fanins = Netlist.fanins mapped e.dst in
          if
            not
              (Array.exists (fun (u, w) -> u = e.src && w = e.weight) fanins)
          then
            failf "certificate edge %d->%d (weight %d) is not in the netlist"
              e.src e.dst e.weight)
        ce;
      (* the edges must close into a cycle, in order *)
      let arr = Array.of_list ce in
      let m = Array.length arr in
      Array.iteri
        (fun i (e : Graphs.Cycle_ratio.edge) ->
          let next = arr.((i + 1) mod m) in
          if e.dst <> next.Graphs.Cycle_ratio.src then
            failf "certificate edges do not close at position %d" i)
        arr;
      if Array.length nodes <> m then failf "certificate node list length";
      Array.iteri
        (fun i v ->
          if arr.(i).Graphs.Cycle_ratio.src <> v then
            failf "certificate node list disagrees with edge %d" i)
        nodes;
      (* totals, positivity, the exact ratio *)
      let d = List.fold_left (fun a (e : Graphs.Cycle_ratio.edge) -> a + e.delay) 0 ce in
      let w = List.fold_left (fun a (e : Graphs.Cycle_ratio.edge) -> a + e.weight) 0 ce in
      if d <> delay then failf "certificate delay %d, edges sum to %d" delay d;
      if w <> weight then
        failf "certificate weight %d, edges sum to %d" weight w;
      if w <= 0 then failf "certificate cycle carries no registers";
      if not (Rat.equal ratio (Rat.make d w)) then
        failf "certificate ratio %s is not delay/weight = %d/%d"
          (Rat.to_string ratio) d w;
      (* maximality: no cycle of the mapped graph is strictly worse *)
      if Graphs.Cycle_ratio.exceeds ~n ~edges ratio then
        failf "a mapped cycle exceeds the certificate ratio %s"
          (Rat.to_string ratio);
      (* consistency with the claimed period and the searched ratio *)
      if period <> max 1 (Rat.ceil ratio) then
        failf "period %d does not match ceil of certificate ratio %s" period
          (Rat.to_string ratio);
      if Rat.( > ) ratio (Rat.max phi Rat.one) then
        failf "certificate ratio %s exceeds the searched phi %s"
          (Rat.to_string ratio) (Rat.to_string phi)

let check_witness doc mapped period latency =
  let wit = member "witness" doc in
  let lags = jints "lags" wit in
  let wperiod = jint "period" wit in
  let wlatency = jint "latency" wit in
  if wperiod <> period then
    failf "witness period %d disagrees with document period %d" wperiod period;
  if wlatency <> latency then
    failf "witness latency %d disagrees with document latency %d" wlatency
      latency;
  if Array.length lags <> Netlist.n mapped then
    failf "lag vector length %d, netlist has %d nodes" (Array.length lags)
      (Netlist.n mapped);
  List.iter
    (fun pi ->
      if lags.(pi) <> 0 then failf "PI %d has nonzero lag %d" pi lags.(pi))
    (Netlist.pis mapped);
  let po_lag =
    List.fold_left
      (fun acc po ->
        if lags.(po) < 0 then failf "PO %d has negative lag %d" po lags.(po);
        max acc lags.(po))
      0 (Netlist.pos mapped)
  in
  if po_lag <> latency then
    failf "maximum PO lag %d is not the claimed latency %d" po_lag latency;
  if not (Retime.Retiming.legal mapped ~r:lags) then
    failf "lag vector is not a legal retiming (negative retimed weight)";
  let realized = Retime.Retiming.apply mapped ~r:lags in
  let achieved = Retime.Retiming.clock_period realized in
  if achieved > period then
    failf "retimed circuit has clock period %d, witness claims %d" achieved
      period

let check_equivalence source mapped ~seed =
  let rng = Rng.create seed in
  if not (Sim.Equiv.mapped_equal rng source mapped) then
    failf "mapped netlist is not simulation-equivalent to the source"

let check_labels source labels phi =
  if Array.length labels <> Netlist.n source then
    failf "labels length %d, source has %d nodes" (Array.length labels)
      (Netlist.n source);
  List.iter
    (fun pi ->
      if not (Rat.equal labels.(pi) Rat.zero) then
        failf "PI %d has label %s, expected 0" pi (Rat.to_string labels.(pi)))
    (Netlist.pis source);
  (* converged-fixpoint invariant: L(v) <= l(v) <= max(1, L(v) + 1) with
     L(v) = max over fanins (l(u) - phi*w) *)
  List.iter
    (fun v ->
      let fanins = Netlist.fanins source v in
      if Array.length fanins > 0 then begin
        let big_l =
          Array.fold_left
            (fun acc (u, w) ->
              Rat.max acc (Rat.sub labels.(u) (Rat.mul_int phi w)))
            (let u, w = fanins.(0) in
             Rat.sub labels.(u) (Rat.mul_int phi w))
            fanins
        in
        let l = labels.(v) in
        if Rat.( < ) l big_l then
          failf "gate %d: label %s below its lower bound L = %s" v
            (Rat.to_string l) (Rat.to_string big_l);
        if Rat.( > ) l (Rat.max Rat.one (Rat.add big_l Rat.one)) then
          failf "gate %d: label %s above max(1, L + 1) with L = %s" v
            (Rat.to_string l) (Rat.to_string big_l)
      end)
    (Netlist.gates source)

let check_provenance doc source labels phi ~k ~cmax =
  let provs =
    match member "provenance" doc with
    | J.List l -> Array.of_list l
    | _ -> failf "provenance: expected a list"
  in
  if Array.length provs <> Netlist.n source then
    failf "provenance length %d, source has %d nodes" (Array.length provs)
      (Netlist.n source);
  let arrival (u, w) = Rat.sub labels.(u) (Rat.mul_int phi w) in
  let cut_function = Seqmap.Mapgen.cut_function source in
  Array.iteri
    (fun v pj ->
      match (Netlist.is_gate source v, pj) with
      | false, J.Null -> ()
      | false, _ -> failf "node %d: provenance on a non-gate" v
      | true, J.Null -> failf "gate %d has no provenance" v
      | true, pj ->
          let label = jrat "label" pj in
          let height = jrat "height" pj in
          let cut = jpairs "cut" pj in
          if jint "iteration" pj < 0 then
            failf "gate %d: negative iteration" v;
          if not (Rat.equal label labels.(v)) then
            failf "gate %d: provenance label %s, labels array says %s" v
              (Rat.to_string label)
              (Rat.to_string labels.(v));
          Array.iter
            (fun (u, w) ->
              if u < 0 || u >= Netlist.n source then
                failf "gate %d: cut input %d out of range" v u;
              if w < 0 then failf "gate %d: negative cut weight" v;
              if Rat.( > ) (Rat.add (arrival (u, w)) Rat.one) label then
                failf
                  "gate %d: cut input (%d, %d) violates validity: l(u) - \
                   phi*w + 1 > l(v)"
                  v u w)
            cut;
          if Rat.( > ) height label then
            failf "gate %d: height %s exceeds label %s" v
              (Rat.to_string height) (Rat.to_string label);
          let resyn_h =
            match member "source" pj with
            | J.Str ("cut_test" | "snapshot" | "recorded") -> None
            | J.Obj [ ("resyn", J.Int h) ] -> Some h
            | _ -> failf "gate %d: unknown provenance source" v
          in
          (match resyn_h with
          | None ->
              (* a plain sequential cut: recompute its height exactly and
                 re-derive the cone function (raises when the cut does not
                 cover all paths from the root) *)
              if Array.length cut > k then
                failf "gate %d: cut width %d exceeds K = %d" v
                  (Array.length cut) k;
              let h =
                if Array.length cut = 0 then Rat.one
                else
                  Rat.add Rat.one
                    (Array.fold_left
                       (fun acc p -> Rat.max acc (arrival p))
                       (arrival cut.(0)) cut)
              in
              if not (Rat.equal h height) then
                failf "gate %d: recomputed cut height %s, claimed %s" v
                  (Rat.to_string h) (Rat.to_string height);
              ignore (cut_function ~root:v ~cut)
          | Some h ->
              if h < 0 then failf "gate %d: negative rescue depth" v;
              if Array.length cut > cmax then
                failf "gate %d: rescue cut width %d exceeds Cmax = %d" v
                  (Array.length cut) cmax;
              if Array.length cut = 0 then
                failf "gate %d: rescue with an empty cut" v;
              (* candidate cuts at rescue depth h are frontier/min cuts of
                 the expansion at threshold l(v) - h, whose nodes are all
                 non-internal there: arrival + 1 <= l(v) - h.  (The cut
                 may include inputs the decomposed cone does not depend
                 on, so the tree height bounds only the used inputs.) *)
              let slack = Rat.sub label (Rat.of_int h) in
              Array.iter
                (fun p ->
                  if Rat.( > ) (Rat.add (arrival p) Rat.one) slack then
                    failf
                      "gate %d: rescue input arrival + 1 exceeds l(v) - h \
                       at depth %d"
                      v h)
                cut))
    provs

let verify ?(seed = 7) doc =
  Obs.Span.time s_verify @@ fun () ->
  Obs.Counter.incr c_checks;
  let result =
    try
      let schema = jstr "schema" doc in
      if schema <> schema_version then
        failf "unsupported schema %S (expected %S)" schema schema_version;
      let source =
        match Circuit_json.of_json (member "source" doc) with
        | Ok nl -> nl
        | Error e -> failf "source netlist: %s" e
      in
      let mapped =
        match Circuit_json.of_json (member "mapped" doc) with
        | Ok nl -> nl
        | Error e -> failf "mapped netlist: %s" e
      in
      let k = jint "k" doc in
      let phi = jrat "phi" doc in
      let period = jint "clock_period" doc in
      let latency = jint "latency" doc in
      let checks = ref [] in
      let add c = checks := c :: !checks in
      add
        (check "netlists-valid" (fun () ->
             (match Netlist.validate ~k source with
             | [] -> ()
             | e :: _ ->
                 failf "source: %s" (Format.asprintf "%a" Netlist.pp_error e));
             match Netlist.validate ~k mapped with
             | [] -> ()
             | e :: _ ->
                 failf "mapped: %s" (Format.asprintf "%a" Netlist.pp_error e)));
      add
        (check "lut-count" (fun () ->
             let luts = jint "luts" doc in
             let real = List.length (Netlist.gates mapped) in
             if luts <> real then
               failf "document says %d LUTs, mapped netlist has %d" luts real));
      add
        (check "certificate" (fun () ->
             check_certificate doc mapped phi period));
      add (check "witness" (fun () -> check_witness doc mapped period latency));
      add
        (check "equivalence" (fun () -> check_equivalence source mapped ~seed));
      (match member "labels" doc with
      | J.Null -> ()
      | lj ->
          let labels =
            match lj with
            | J.List l ->
                Array.of_list
                  (List.map
                     (fun r ->
                       match Circuit_json.rat_of_json r with
                       | Ok r -> r
                       | Error e -> failf "labels: %s" e)
                     l)
            | _ -> failf "labels: expected a list"
          in
          add
            (check "labels-fixpoint" (fun () ->
                 check_labels source labels phi));
          add
            (check "provenance" (fun () ->
                 let cmax = jint "cmax" doc in
                 check_provenance doc source labels phi ~k ~cmax)));
      let v_checks = List.rev !checks in
      Ok { v_ok = List.for_all (fun c -> c.c_ok) v_checks; v_checks }
    with Bad e -> Error e
  in
  (match result with
  | Ok { v_ok = true; _ } -> ()
  | Ok _ | Error _ -> Obs.Counter.incr c_check_failures);
  result

let render_verdict v =
  let buf = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.add_string buf
        (if c.c_ok then Printf.sprintf "PASS %s\n" c.c_name
         else Printf.sprintf "FAIL %s: %s\n" c.c_name c.c_detail))
    v.v_checks;
  Buffer.add_string buf
    (if v.v_ok then "audit: ACCEPTED\n" else "audit: REJECTED\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Structural document comparison with first-differing-path reporting  *)
(* (the byte-identity oracle: test_audit asserts that audit documents   *)
(* built with Obs on and off are equal).                                *)
(* ------------------------------------------------------------------ *)

let json_kind = function
  | J.Null -> "null"
  | J.Bool _ -> "bool"
  | J.Int _ -> "int"
  | J.Float _ -> "float"
  | J.Str _ -> "string"
  | J.List _ -> "list"
  | J.Obj _ -> "object"

let json_atom = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Int i -> string_of_int i
  | J.Float f -> Printf.sprintf "%.17g" f
  | J.Str s -> if String.length s > 40 then String.sub s 0 40 ^ "..." else s
  | J.List _ | J.Obj _ -> assert false

let equal_documents a b =
  let diff = ref None in
  let record path msg =
    if !diff = None then diff := Some (path, msg)
  in
  let path_str rev_path = String.concat "" (List.rev rev_path) in
  let rec go rev_path a b =
    if !diff = None then
      match (a, b) with
      | J.Obj fa, J.Obj fb ->
          let ka = List.map fst fa and kb = List.map fst fb in
          if ka <> kb then
            record (path_str rev_path)
              (Printf.sprintf "field sets differ ({%s} vs {%s})"
                 (String.concat "," ka) (String.concat "," kb))
          else
            List.iter2
              (fun (k, va) (_, vb) -> go (("." ^ k) :: rev_path) va vb)
              fa fb
      | J.List la, J.List lb ->
          let na = List.length la and nb = List.length lb in
          if na <> nb then
            record (path_str rev_path)
              (Printf.sprintf "list lengths differ (%d vs %d)" na nb)
          else
            List.iteri
              (fun i (va, vb) ->
                go (Printf.sprintf "[%d]" i :: rev_path) va vb)
              (List.combine la lb)
      | (J.Obj _ | J.List _), _ | _, (J.Obj _ | J.List _) ->
          record (path_str rev_path)
            (Printf.sprintf "kinds differ (%s vs %s)" (json_kind a)
               (json_kind b))
      | _ ->
          if not (J.equal a b) then
            record (path_str rev_path)
              (Printf.sprintf "%s <> %s" (json_atom a) (json_atom b))
  in
  go [ "$" ] a b;
  match !diff with
  | None -> Ok ()
  | Some (path, msg) -> Error (Printf.sprintf "%s: %s" path msg)
