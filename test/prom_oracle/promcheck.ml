(* promcheck FILE: validate a Prometheus scrape body (- reads stdin)
   against the exposition format.  Prints "promcheck: OK" and exits 0,
   or prints each violation and exits 2; exits 1 when FILE cannot be
   read. *)

let () =
  let text =
    match Sys.argv with
    | [| _ |] | [| _; "-" |] -> In_channel.input_all In_channel.stdin
    | [| _; path |] -> (
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error e ->
          prerr_endline ("promcheck: " ^ e);
          exit 1)
    | _ ->
        prerr_endline "usage: promcheck [FILE|-]";
        exit 1
  in
  match Prom_oracle.validate text with
  | Ok () -> print_endline "promcheck: OK"
  | Error errors ->
      List.iter (fun e -> prerr_endline ("promcheck: " ^ e)) errors;
      exit 2
