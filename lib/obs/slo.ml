(* Obs.Slo — declarative service-level objectives and burn rates.

   An objective is parsed from the compact CLI spelling
   ("route=/map,p99=250ms,err=0.1%") or a config file of one spec per
   line.  Evaluation is scrape-time arithmetic over data that already
   exists: the route's log-bucketed latency Histogram snapshot and its
   request/error counters.  Nothing is recorded per-request for SLOs —
   which is why the burn rates are exactly reproducible from a scraped
   /metrics body (doc/PROFILING.md §SLOs and burn rates).

   Burn rate is the classic error-budget consumption speed:
     latency: bad_fraction / (1 - q)     (at burn 1.0 the route is
       exactly meeting "q of requests under target")
     errors:  error_rate / budget
   > 1 means the budget is being consumed faster than it accrues.

   Bucketed quantile honesty: a log-bucketed histogram cannot count
   "observations <= 250ms" exactly, only "observations <= the bucket
   boundary at or above 250ms".  We evaluate against that boundary
   ([good_upper_seconds], = Histogram.bucket_upper (bucket_of target))
   and publish it, so (a) the evaluation is deterministic, (b) anyone
   holding the scrape can reproduce [good] from the cumulative
   _bucket{le="..."} series exactly (test_serve's "slo burn rate
   reproduced from a scrape" case checks this on a live server), and
   (c) the small systematic slack (at most one sqrt-2 bucket) is
   visible rather than hidden. *)

type objective = {
  o_route : string;  (* "/map" *)
  o_latency : (string * float * float) option;
      (* (label "p99", quantile 0.99, target seconds) *)
  o_err : float option;  (* error budget as a fraction *)
}

let spec_syntax =
  "expected route=<path>[,p<NN>=<dur>][,err=<pct>%], e.g. \
   route=/map,p99=250ms,err=0.1%"

let parse_duration v =
  let num s = float_of_string_opt (String.trim s) in
  let strip suffix s =
    if String.length s > String.length suffix
       && String.ends_with ~suffix s
    then Some (String.sub s 0 (String.length s - String.length suffix))
    else None
  in
  match strip "ms" v with
  | Some n -> Option.map (fun f -> f /. 1000.) (num n)
  | None -> (
      match strip "s" v with Some n -> num n | None -> num v)

let parse_fraction v =
  match
    if String.ends_with ~suffix:"%" v then
      Option.map
        (fun f -> f /. 100.)
        (float_of_string_opt (String.sub v 0 (String.length v - 1)))
    else float_of_string_opt v
  with
  | Some f when f > 0. && f < 1. -> Some f
  | _ -> None

let parse_quantile_key k =
  if String.length k >= 2 && k.[0] = 'p'
     && String.for_all
          (fun c -> c >= '0' && c <= '9')
          (String.sub k 1 (String.length k - 1))
  then
    let digits = String.sub k 1 (String.length k - 1) in
    let q =
      float_of_string digits /. (10. ** float_of_int (String.length digits))
    in
    if q > 0. && q < 1. then Some q else None
  else None

let parse spec =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let fields =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let kvs =
    List.map
      (fun field ->
        match String.index_opt field '=' with
        | Some i ->
            Ok
              ( String.sub field 0 i,
                String.sub field (i + 1) (String.length field - i - 1) )
        | None -> err "SLO spec: field %S is not key=value (%s)" field
                    spec_syntax)
      fields
  in
  let rec build o = function
    | [] -> Ok o
    | Error e :: _ -> Error e
    | Ok (k, v) :: rest -> (
        match k with
        | "route" ->
            if v = "" then err "SLO spec: empty route (%s)" spec_syntax
            else build { o with o_route = v } rest
        | "err" -> (
            match parse_fraction v with
            | Some f -> build { o with o_err = Some f } rest
            | None ->
                err "SLO spec: bad error budget %S (want e.g. 0.1%% or 0.001)"
                  v)
        | _ -> (
            match parse_quantile_key k with
            | Some q -> (
                match parse_duration v with
                | Some t when t > 0. ->
                    build { o with o_latency = Some (k, q, t) } rest
                | _ ->
                    err "SLO spec: bad duration %S for %s (want e.g. 250ms \
                         or 0.25s)"
                      v k)
            | None -> err "SLO spec: unknown key %S (%s)" k spec_syntax))
  in
  match build { o_route = ""; o_latency = None; o_err = None } kvs with
  | Error e -> Error e
  | Ok o ->
      if o.o_route = "" then err "SLO spec: missing route= (%s)" spec_syntax
      else if o.o_latency = None && o.o_err = None then
        err "SLO spec for %s: needs at least one objective (%s)" o.o_route
          spec_syntax
      else Ok o

let parse_all specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match parse spec with
        | Ok o -> go (o :: acc) rest
        | Error e -> Error e)
  in
  go [] specs

(* Config file: one spec per line, '#' comments and blank lines
   ignored. *)
let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | body ->
      String.split_on_char '\n' body
      |> List.map String.trim
      |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"#" l))
      |> parse_all

type latency_verdict = {
  lv_label : string;
  lv_quantile : float;
  lv_target : float;
  lv_good_upper : float;  (* the bucket boundary actually evaluated *)
  lv_good : int;
  lv_count : int;
  lv_bad_fraction : float;
  lv_burn : float;
  lv_ok : bool;
}

type err_verdict = {
  ev_budget : float;
  ev_errors : int;
  ev_total : int;
  ev_rate : float;
  ev_burn : float;
  ev_ok : bool;
}

type verdict = {
  v_route : string;
  v_latency : latency_verdict option;
  v_err : err_verdict option;
  v_ok : bool;
}

let eval_latency (label, q, target) (snap : Histogram.snapshot) =
  let bucket = Histogram.bucket_of target in
  let good_upper = Histogram.bucket_upper bucket in
  let good =
    List.fold_left
      (fun acc (i, c) -> if i <= bucket then acc + c else acc)
      0 snap.Histogram.s_buckets
  in
  let count = snap.Histogram.s_count in
  let bad_fraction =
    if count = 0 then 0. else float_of_int (count - good) /. float_of_int count
  in
  let burn = bad_fraction /. (1. -. q) in
  {
    lv_label = label;
    lv_quantile = q;
    lv_target = target;
    lv_good_upper = good_upper;
    lv_good = good;
    lv_count = count;
    lv_bad_fraction = bad_fraction;
    lv_burn = burn;
    lv_ok = burn <= 1.;
  }

let eval_err budget ~total ~errors =
  let rate =
    if total = 0 then 0. else float_of_int errors /. float_of_int total
  in
  let burn = rate /. budget in
  {
    ev_budget = budget;
    ev_errors = errors;
    ev_total = total;
    ev_rate = rate;
    ev_burn = burn;
    ev_ok = burn <= 1.;
  }

let evaluate o ~latency ~total ~errors =
  let v_latency = Option.map (fun l -> eval_latency l latency) o.o_latency in
  let v_err = Option.map (fun b -> eval_err b ~total ~errors) o.o_err in
  {
    v_route = o.o_route;
    v_latency;
    v_err;
    v_ok =
      Option.fold ~none:true ~some:(fun l -> l.lv_ok) v_latency
      && Option.fold ~none:true ~some:(fun e -> e.ev_ok) v_err;
  }

let verdict_json v =
  let latency =
    match v.v_latency with
    | None -> []
    | Some l ->
        [
          ( "latency",
            Json.Obj
              [
                ("objective", Json.Str l.lv_label);
                ("quantile", Json.Float l.lv_quantile);
                ("target_seconds", Json.Float l.lv_target);
                ("good_upper_seconds", Json.Float l.lv_good_upper);
                ("good", Json.Int l.lv_good);
                ("count", Json.Int l.lv_count);
                ("bad_fraction", Json.Float l.lv_bad_fraction);
                ("burn_rate", Json.Float l.lv_burn);
                ("ok", Json.Bool l.lv_ok);
              ] );
        ]
  in
  let err =
    match v.v_err with
    | None -> []
    | Some e ->
        [
          ( "errors",
            Json.Obj
              [
                ("budget", Json.Float e.ev_budget);
                ("errors", Json.Int e.ev_errors);
                ("total", Json.Int e.ev_total);
                ("rate", Json.Float e.ev_rate);
                ("burn_rate", Json.Float e.ev_burn);
                ("ok", Json.Bool e.ev_ok);
              ] );
        ]
  in
  Json.Obj
    ([ ("route", Json.Str v.v_route) ]
    @ latency @ err
    @ [ ("ok", Json.Bool v.v_ok) ])

(* Prometheus families for the scrape (the renderer adds the turbosyn_
   prefix and sanitizes dots): slo.latency_burn_rate{route,objective},
   slo.latency_target_seconds{route,objective}, slo.error_burn_rate
   {route}, slo.error_budget{route}, slo.ok{route}. *)
let families verdicts =
  let gauge fname fhelp samples =
    if samples = [] then None
    else Some { Prometheus.fname; fhelp; ftype = `Gauge; samples }
  in
  let latencies =
    List.filter_map
      (fun v ->
        Option.map
          (fun l ->
            ( [ ("route", v.v_route); ("objective", l.lv_label) ],
              l ))
          v.v_latency)
      verdicts
  in
  let errs =
    List.filter_map
      (fun v ->
        Option.map (fun e -> ([ ("route", v.v_route) ], e)) v.v_err)
      verdicts
  in
  List.filter_map Fun.id
    [
      gauge "slo.latency_burn_rate"
        "Latency error-budget burn rate per objective (>1 = violating)."
        (List.map
           (fun (labels, l) -> { Prometheus.labels; value = l.lv_burn })
           latencies);
      gauge "slo.latency_target_seconds"
        "Configured latency target per objective."
        (List.map
           (fun (labels, l) -> { Prometheus.labels; value = l.lv_target })
           latencies);
      gauge "slo.error_burn_rate"
        "Error-rate budget burn rate per route (>1 = violating)."
        (List.map
           (fun (labels, e) -> { Prometheus.labels; value = e.ev_burn })
           errs);
      gauge "slo.error_budget"
        "Configured error budget (fraction of requests) per route."
        (List.map
           (fun (labels, e) -> { Prometheus.labels; value = e.ev_budget })
           errs);
      gauge "slo.ok" "1 when every objective for the route is within budget."
        (List.map
           (fun v ->
             {
               Prometheus.labels = [ ("route", v.v_route) ];
               value = (if v.v_ok then 1. else 0.);
             })
           verdicts);
    ]
