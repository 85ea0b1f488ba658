(* Run a function with the structured log routed to a fresh file at
   [level], and read back the JSON lines it wrote: the tests check the
   wire format, not an in-memory copy.  Afterwards the log goes to
   [restore] (stderr by default) at level info. *)
let capture ?(level = Obs.Log.Debug) ?(restore = Obs.Log.to_stderr) f =
  let path = Filename.temp_file "turbosyn-log" ".jsonl" in
  Obs.Log.set_level level;
  Obs.Log.to_file path;
  let r =
    Fun.protect
      ~finally:(fun () ->
        restore ();
        Obs.Log.set_level Obs.Log.Info)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  ( r,
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Obs.Json.of_string l with
           | Ok (Obs.Json.Obj members) -> members
           | Ok _ | Error _ -> failwith ("log line is not a JSON object: " ^ l))
  )

(* A record's string member [key], if it has one. *)
let str key record =
  match List.assoc_opt key record with
  | Some (Obs.Json.Str s) -> Some s
  | _ -> None

(* The records of one event, in order. *)
let events name records =
  List.filter (fun r -> str "event" r = Some name) records
