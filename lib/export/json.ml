type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- the writer -------------------------------------------------------------

   One serializer behind [to_string], [to_channel] and [escape].  It emits
   straight into a [Buffer.t]: indentation is a substring of one shared run
   of spaces, strings are copied run by run between the bytes that need
   rewriting, ints are written digit by digit and floats go to the
   runtime's formatter without [Printf]'s format interpreter.  Half of a
   pretty-printed design is indentation; only floats allocate per
   value. *)

external format_float : string -> float -> string = "caml_format_float"

let spaces = String.make 128 ' '

let add_pad buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else Buffer.add_string buf (String.make n ' ')

let hex = "0123456789abcdef"

(* Rewrites exactly '"', '\\', '\n', '\r', '\t' and the other bytes below
   0x20 (as \u00XX); everything else, DEL and non-ASCII included, is
   copied as is. *)
let add_escaped buf s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]);
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run)

let escape s =
  let buf = Buffer.create (String.length s + (String.length s lsr 3) + 8) in
  add_escaped buf s;
  Buffer.contents buf

(* Same digits as [string_of_int]. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* JSON has no NaN/inf: those are [null]. *)
let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then Buffer.add_string buf (format_float "%.1f" x)
  else if Float.is_nan x || Float.abs x = infinity then Buffer.add_string buf "null"
  else Buffer.add_string buf (format_float "%.12g" x)

(* [spill] runs between the items of every list and object, so a
   channel writer can hand the buffer over before it grows large. *)
let write ~indent ~spill buf v =
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  let open_item depth i =
    if i > 0 then begin
      Buffer.add_char buf ',';
      spill ();
      nl ()
    end;
    if indent > 0 then add_pad buf ((depth + 1) * indent)
  in
  let close depth c =
    nl ();
    if indent > 0 then add_pad buf (depth * indent);
    Buffer.add_char buf c
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float x -> add_float buf x
    | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          open_item depth i;
          go (depth + 1) item)
        items;
      close depth ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          open_item depth i;
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\": ";
          go (depth + 1) item)
        fields;
      close depth '}'
  in
  go 0 v

let to_string ?(indent = 0) v =
  let buf = Buffer.create 4096 in
  write ~indent ~spill:ignore buf v;
  Buffer.contents buf

let chunk = 65536

let to_channel ?(indent = 0) oc v =
  let buf = Buffer.create (chunk + 4096) in
  let spill () =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  write ~indent ~spill buf v;
  Buffer.output_buffer oc buf

(* --- strict syntax validation ------------------------------------------- *)

exception Bad of string

let validate text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word =
    String.iter (fun c -> expect c) word
  in
  let string_body () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> error "bad unicode escape"
          done
        | _ -> error "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> error "control character in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then error "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> string_body ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec fields () =
          skip_ws ();
          string_body ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ()
          | Some '}' -> advance ()
          | _ -> error "expected ',' or '}'"
        in
        fields ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec items () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items ()
          | Some ']' -> advance ()
          | _ -> error "expected ',' or ']'"
        in
        items ()
      end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> error "expected a value"
  in
  try
    value ();
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing content at offset %d" !pos) else Ok ()
  with Bad msg -> Error msg

(* --- parsing ------------------------------------------------------------- *)

(* Same grammar as [validate], but building the value: the CLI reads
   back its own exports (trace/metrics files, explore points) through
   this.  Numbers parse as [Int] when they are integral int literals
   and as [Float] otherwise, matching what [to_string] emits. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let error msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> error (Printf.sprintf "expected '%c'" c)
  in
  let literal word = String.iter (fun c -> expect c) word in
  let hex_digit () =
    match peek () with
    | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
    | _ -> error "bad unicode escape"
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'u' ->
          advance ();
          let start = !pos in
          for _ = 1 to 4 do
            hex_digit ()
          done;
          let code = int_of_string ("0x" ^ String.sub text start 4) in
          (* Keep the exporter's byte-level round trip: BMP code points
             re-encode as UTF-8; we only ever emit \u00XX ourselves. *)
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
        | _ -> error "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> error "control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then error "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      is_float := true;
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let lexeme = String.sub text start (!pos - start) in
    if !is_float then Float (float_of_string lexeme)
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> Float (float_of_string lexeme)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (string_body ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        List (items [])
      end
    | Some 't' ->
      literal "true";
      Bool true
    | Some 'f' ->
      literal "false";
      Bool false
    | Some 'n' ->
      literal "null";
      Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> error "expected a value"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing content at offset %d" !pos) else Ok v
  with Bad msg -> Error msg

(* Object-walking helpers for consumers of parsed documents. *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
