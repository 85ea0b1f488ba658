type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           a b
  | _ -> false

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* shortest decimal that parses back to the same float *)
let float_string f =
  if Float.is_nan f || Float.is_integer (f /. 0.) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_string f)
  | Str s -> Buffer.add_string buf (escape_string s)
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (escape_string k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let to_pretty_string v =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null | Bool _ | Int _ | Float _ | Str _ ->
        Buffer.add_string buf (to_string v)
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            go (depth + 1) x)
          xs;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            indent (depth + 1);
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf ": ";
            go (depth + 1) x)
          kvs;
        Buffer.add_char buf '\n';
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_pretty_string v)

(* ---------------------------------------------------------------- *)
(* Parsing (recursive descent, for round-trip tests and tooling)    *)
(* ---------------------------------------------------------------- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let fail p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      p.pos <- p.pos + 1;
      skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some x when x = c -> p.pos <- p.pos + 1
  | _ -> fail p (Printf.sprintf "expected '%c'" c)

let literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src
    && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail p (Printf.sprintf "expected %s" word)

let utf8_of_code buf code =
  (* encode a Unicode scalar value as UTF-8 bytes *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail p "unterminated string"
    | Some '"' -> p.pos <- p.pos + 1
    | Some '\\' -> (
        p.pos <- p.pos + 1;
        match peek p with
        | Some '"' -> Buffer.add_char buf '"'; p.pos <- p.pos + 1; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; p.pos <- p.pos + 1; go ()
        | Some '/' -> Buffer.add_char buf '/'; p.pos <- p.pos + 1; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; p.pos <- p.pos + 1; go ()
        | Some 't' -> Buffer.add_char buf '\t'; p.pos <- p.pos + 1; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; p.pos <- p.pos + 1; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; p.pos <- p.pos + 1; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; p.pos <- p.pos + 1; go ()
        | Some 'u' ->
            if p.pos + 5 > String.length p.src then fail p "bad \\u escape";
            let hex = String.sub p.src (p.pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> utf8_of_code buf code
            | None -> fail p "bad \\u escape");
            p.pos <- p.pos + 5;
            go ()
        | _ -> fail p "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        p.pos <- p.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let advance_while cond =
    let rec go () =
      match peek p with
      | Some c when cond c -> p.pos <- p.pos + 1; go ()
      | _ -> ()
    in
    go ()
  in
  (match peek p with Some '-' -> p.pos <- p.pos + 1 | _ -> ());
  advance_while (fun c -> c >= '0' && c <= '9');
  (match peek p with
  | Some '.' ->
      is_float := true;
      p.pos <- p.pos + 1;
      advance_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  (match peek p with
  | Some ('e' | 'E') ->
      is_float := true;
      p.pos <- p.pos + 1;
      (match peek p with Some ('+' | '-') -> p.pos <- p.pos + 1 | _ -> ());
      advance_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let s = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail p "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* integer overflow: fall back to float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail p "bad number")

(* Containers nest at most this deep.  The parser recurses once per
   level, so without a cap a body of nothing but '[' costs time and
   stack that grow with its length before it fails (a minute for 16 MB). *)
let max_depth = 512

(* [depth] counts the containers enclosing the value being parsed *)
let rec parse_value p ~depth =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> literal p "null" Null
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some '"' -> Str (parse_string p)
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some ('[' | '{') when depth >= max_depth ->
      fail p (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '[' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some ']' then begin
        p.pos <- p.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value p ~depth:(depth + 1) ] in
        skip_ws p;
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          items := parse_value p ~depth:(depth + 1) :: !items;
          skip_ws p
        done;
        expect p ']';
        List (List.rev !items)
      end
  | Some '{' ->
      p.pos <- p.pos + 1;
      skip_ws p;
      if peek p = Some '}' then begin
        p.pos <- p.pos + 1;
        Obj []
      end
      else begin
        let member () =
          skip_ws p;
          let k = parse_string p in
          skip_ws p;
          expect p ':';
          let v = parse_value p ~depth:(depth + 1) in
          skip_ws p;
          (k, v)
        in
        let items = ref [ member () ] in
        while peek p = Some ',' do
          p.pos <- p.pos + 1;
          items := member () :: !items
        done;
        expect p '}';
        Obj (List.rev !items)
      end
  | Some c -> fail p (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let p = { src = s; pos = 0 } in
  match parse_value p ~depth:0 with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None
