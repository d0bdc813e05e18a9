(* Tests for Noc_export: JSON builder/validator and the DOT/JSON
   design exports. *)

module Json = Noc_export.Json
module Dot = Noc_export.Dot
module Export = Noc_export.Design_export
module Config = Noc_arch.Noc_config
module DF = Noc_core.Design_flow
module SD = Noc_benchkit.Soc_designs

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- json builder ------------------------------------------------------- *)

let test_json_scalars () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "true" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "42" (Json.to_string (Json.Int 42));
  Alcotest.(check string) "float" "1.5" (Json.to_string (Json.Float 1.5));
  Alcotest.(check string) "integral float" "2.0" (Json.to_string (Json.Float 2.0));
  Alcotest.(check string) "string" "\"hi\"" (Json.to_string (Json.String "hi"))

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string (Json.String "a\"b\\c"));
  Alcotest.(check string) "newline" "\"a\\nb\"" (Json.to_string (Json.String "a\nb"));
  Alcotest.(check string) "control char" "\"\\u0001\""
    (Json.to_string (Json.String "\001"))

let test_json_nan_becomes_null () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float infinity))

let test_json_compound () =
  let v = Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("b", Json.Bool false) ] in
  Alcotest.(check string) "compact" "{\"xs\": [1,2],\"b\": false}"
    (Json.to_string v |> String.map (fun c -> c))
    |> ignore;
  (* don't over-specify separators; just require validity and keys *)
  let s = Json.to_string v in
  Alcotest.(check bool) "valid" true (Json.validate s = Ok ());
  Alcotest.(check bool) "has xs" true (contains s "\"xs\"")

let test_json_roundtrip_validity () =
  let v =
    Json.Obj
      [
        ("name", Json.String "design \"x\"\n");
        ("values", Json.List [ Json.Float 0.125; Json.Int (-3); Json.Null ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "compact valid" true (Json.validate (Json.to_string v) = Ok ());
  Alcotest.(check bool) "pretty valid" true
    (Json.validate (Json.to_string ~indent:2 v) = Ok ())

(* --- json validator negatives -------------------------------------------- *)

let test_json_validator_rejects () =
  let bad s = Alcotest.(check bool) s true (Result.is_error (Json.validate s)) in
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "01a";
  bad "{\"a\":1} trailing";
  bad "{'single':1}";
  bad "[1 2]"

let test_json_validator_accepts () =
  let good s = Alcotest.(check bool) s true (Json.validate s = Ok ()) in
  good "null";
  good "-12.5e-3";
  good "[]";
  good "{}";
  good "  [ 1 , 2.5 , \"x\\u00e9\" , { \"k\" : [ true , false , null ] } ]  "

let prop_generated_json_always_valid =
  QCheck.Test.make ~name:"builder output always validates" ~count:200
    QCheck.(
      pair (small_list (pair small_string small_int)) (small_list (option (pair bool small_string))))
    (fun (fields, items) ->
      let v =
        Json.Obj
          (List.map (fun (k, i) -> (k, Json.Int i)) fields
          @ [
              ( "items",
                Json.List
                  (List.map
                     (function
                       | None -> Json.Null
                       | Some (b, s) -> Json.Obj [ ("b", Json.Bool b); ("s", Json.String s) ])
                     items) );
            ])
      in
      Json.validate (Json.to_string v) = Ok ()
      && Json.validate (Json.to_string ~indent:3 v) = Ok ())

(* --- the writer against the reference serializer ---------------------------

   [Reference] is the straightforward serializer the writer replaced,
   kept verbatim as the oracle: a fresh [Buffer] per escaped string, a
   [String.make] per indented line and [Printf] per float.  The writer
   must emit exactly its bytes. *)

module Reference = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_repr x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
    else if Float.is_nan x || Float.abs x = infinity then "null" (* JSON has no NaN/inf *)
    else Printf.sprintf "%.12g" x

  let to_string ?(indent = 0) v =
    let buf = Buffer.create 1024 in
    let pad depth = if indent > 0 then Buffer.add_string buf (String.make (depth * indent) ' ') in
    let nl () = if indent > 0 then Buffer.add_char buf '\n' in
    let rec go depth = function
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
      | Json.Int i -> Buffer.add_string buf (string_of_int i)
      | Json.Float x -> Buffer.add_string buf (float_repr x)
      | Json.String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
      | Json.List [] -> Buffer.add_string buf "[]"
      | Json.List items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
      | Json.Obj [] -> Buffer.add_string buf "{}"
      | Json.Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, item) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (depth + 1) item)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
    in
    go 0 v;
    Buffer.contents buf
end

(* Bytes the writer treats specially, plus the ones it must not: DEL
   and non-ASCII pass through unescaped. *)
let gen_byte_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, char);
        ( 2,
          oneofl
            [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\b'; '\012'; '\031'; '\127'; '\128'; '\255' ]
        );
        (2, char_range 'a' 'z');
      ]
  in
  string_size ~gen:byte (0 -- 24)

let gen_float =
  let open QCheck.Gen in
  let edge =
    oneofl
      [
        0.0; -0.0; 1.5; -2.0; 0.1; 1e15; -1e15; 1e15 -. 1.0; 1e15 +. 2.0; -.(1e15 -. 1.0);
        Float.nan; Float.infinity; Float.neg_infinity; 5e-324; Float.min_float /. 3.0;
        Float.min_float; 1e300; -1e300; Float.max_float; 123456.789012345;
      ]
  in
  frequency [ (1, float); (1, edge); (1, map float_of_int small_signed_int) ]

let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]);
        map (fun x -> Json.Float x) gen_float;
        map (fun s -> Json.String s) gen_byte_string;
      ]
  in
  let tree =
    sized_size (0 -- 8)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                 ( 1,
                   map (fun l -> Json.Obj l) (list_size (0 -- 4) (pair gen_byte_string (self (n / 2))))
                 );
               ])
  in
  (* Nest up to 70 levels: at indent 2 and 3 that is deeper than the
     writer's shared run of spaces. *)
  let rec nest v = function
    | [] -> v
    | in_list :: rest ->
      nest (if in_list then Json.List [ v; Json.Int 0 ] else Json.Obj [ ("k", v) ]) rest
  in
  map2 nest tree (list_size (0 -- 70) bool)

let prop_writer_matches_reference =
  QCheck.Test.make ~name:"writer emits the reference serializer's bytes" ~count:400
    (QCheck.make ~print:(fun (v, s) -> Reference.to_string v ^ " / " ^ String.escaped s)
       QCheck.Gen.(pair gen_json gen_byte_string))
    (fun (v, s) ->
      List.for_all
        (fun indent -> Json.to_string ~indent v = Reference.to_string ~indent v)
        [ 0; 2; 3 ]
      && Json.escape s = Reference.escape s)

let test_writer_every_byte () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "escape, all 256 bytes" (Reference.escape all) (Json.escape all);
  let v = Json.Obj [ (all, Json.List [ Json.String all; Json.String "" ]) ] in
  List.iter
    (fun indent ->
      Alcotest.(check string)
        (Printf.sprintf "to_string ~indent:%d" indent)
        (Reference.to_string ~indent v) (Json.to_string ~indent v))
    [ 0; 2; 3 ]

(* --- design exports -------------------------------------------------------- *)

let sample_design () =
  let config = { Config.default with nis_per_switch = 1 } in
  match DF.run ~config (DF.spec_of_use_cases ~name:"export-sample" SD.example1_use_cases) with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let test_design_json_valid_and_complete () =
  let d = sample_design () in
  let s = Export.design_to_string d in
  (match Json.validate s with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun key -> Alcotest.(check bool) ("has " ^ key) true (contains s ("\"" ^ key ^ "\"")))
    [ "name"; "config"; "mesh"; "placement"; "routes"; "groups"; "verification"; "slot_starts" ]

let test_mapping_json_counts () =
  let d = sample_design () in
  let m = d.DF.mapping in
  match Export.mapping m with
  | Json.Obj fields ->
    (match List.assoc "routes" fields with
    | Json.List routes ->
      Alcotest.(check int) "all routes exported" (List.length m.Noc_core.Mapping.routes)
        (List.length routes)
    | _ -> Alcotest.fail "routes not a list");
    (match List.assoc "placement" fields with
    | Json.List cells ->
      Alcotest.(check int) "placement length" 4 (List.length cells)
    | _ -> Alcotest.fail "placement not a list")
  | _ -> Alcotest.fail "mapping not an object"

let test_dot_topology_well_formed () =
  let d = sample_design () in
  let s = Dot.topology d.DF.mapping in
  Alcotest.(check bool) "digraph" true (contains s "digraph");
  Alcotest.(check bool) "closes" true (String.length s > 0 && contains s "}");
  (* one node line per switch *)
  for sw = 0 to Noc_core.Mapping.switch_count d.DF.mapping - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "switch %d present" sw)
      true
      (contains s (Printf.sprintf "s%d [label=" sw))
  done

let test_dot_use_case_heat () =
  let d = sample_design () in
  let s = Dot.use_case d.DF.mapping ~use_case:0 in
  Alcotest.(check bool) "labelled" true (contains s "use-case 0");
  Alcotest.(check bool) "utilization labels" true (contains s "%\"");
  Alcotest.(check bool) "rejects bad id" true
    (try
       ignore (Dot.use_case d.DF.mapping ~use_case:99);
       false
     with Invalid_argument _ -> true)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_generated_json_always_valid; prop_writer_matches_reference ]

let () =
  Alcotest.run "noc_export"
    [
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "nan/inf" `Quick test_json_nan_becomes_null;
          Alcotest.test_case "compound" `Quick test_json_compound;
          Alcotest.test_case "roundtrip validity" `Quick test_json_roundtrip_validity;
          Alcotest.test_case "validator rejects" `Quick test_json_validator_rejects;
          Alcotest.test_case "validator accepts" `Quick test_json_validator_accepts;
          Alcotest.test_case "writer, every byte" `Quick test_writer_every_byte;
        ] );
      ( "design",
        [
          Alcotest.test_case "json valid and complete" `Quick test_design_json_valid_and_complete;
          Alcotest.test_case "mapping counts" `Quick test_mapping_json_counts;
          Alcotest.test_case "dot topology" `Quick test_dot_topology_well_formed;
          Alcotest.test_case "dot use-case heat" `Quick test_dot_use_case_heat;
        ] );
      ("properties", qcheck_cases);
    ]
