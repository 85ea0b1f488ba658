(* The repository benchmark.

     bench.exe --workload deep-suite|map-scale|serve-mix --seed N
               --seconds S --trace 0|1 --server PATH --work DIR
               [--commit C] [--quick]

   Prints a run record line, then as its last line the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when
   any correctness check failed.  perfbench/run.py builds the program
   and calls this; perfbench/METRICS.md describes every metric. *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let server = ref "" and work = ref "." and commit = ref "unknown" and quick = ref false in
  let job = ref "" and circuit = ref "" and algo = ref "" and blif = ref "" in
  let audit_seed = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "deep-suite | map-scale | serve-mix");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measurement budget");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--server", Arg.Set_string server, "turbosyn CLI binary (serve-mix)");
      ("--work", Arg.Set_string work, "directory for logs and the stage trace");
      ("--commit", Arg.Set_string commit, "source revision for the run record");
      ("--quick", Arg.Set quick, "reduced job lists, for the self-check");
      ("--job", Arg.Set_string job, "run|replay: run one synth job (child process)");
      ("--circuit", Arg.Set_string circuit, "the job's circuit name");
      ("--algo", Arg.Set_string algo, "the job's algorithm");
      ("--blif", Arg.Set_string blif, "the job's BLIF file");
      ("--audit-seed", Arg.Int (fun s -> audit_seed := Some s), "audit the job's result");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  if !job <> "" then begin
    Synth_bench.child ~mode:!job ~circuit:!circuit ~algo:!algo ~file:!blif
      ~audit_seed:!audit_seed ~traced:trace;
    exit 0
  end;
  let host_before = host_reference () in
  let outcome =
    match !workload with
    | ("deep-suite" | "map-scale") as w ->
        Synth_bench.run w ~seed:!seed ~seconds:!seconds ~trace ~quick:!quick ~work:!work
    | "serve-mix" ->
        if !server = "" then (prerr_endline "serve-mix needs --server"; exit 2);
        Serve_bench.run ~seed:!seed ~seconds:!seconds ~trace ~binary:!server ~work:!work
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  let record =
    J.Obj
      ([
         ("run_record", J.Str "perfbench/1");
         ("workload", J.Str !workload);
         ("seed", J.Int !seed);
         ("seconds", J.Float !seconds);
         ("trace", J.Bool trace);
         ("quick", J.Bool !quick);
         ("commit", J.Str !commit);
         ("ocaml", J.Str Sys.ocaml_version);
         ("nproc", J.Int (nproc ()));
         ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
         ("host_ref_s", J.List [ host_before; host_reference () ]);
         ("attempted", J.Int outcome.attempted);
         ("failed", J.Int outcome.failed);
         ("failures", J.List (List.rev_map (fun (k, m) -> J.Str (k ^ ": " ^ m)) !failures));
       ]
      @ outcome.record)
  in
  print_endline (J.to_string record);
  let correct = outcome.failed = 0 in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int outcome.attempted);
            ("failed", J.Int outcome.failed);
            ("metrics", metrics_json ~trace outcome.metrics);
          ]));
  if not correct then exit 1
