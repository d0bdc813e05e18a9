module J = Noc_export.Json
module Config = Noc_arch.Noc_config

let proto_version = 1

type op_config = { freq_mhz : float; slots : int; nis_per_switch : int; xy : bool }

let default_config =
  let d = Config.default in
  {
    freq_mhz = d.Config.freq_mhz;
    slots = d.Config.slots;
    nis_per_switch = d.Config.nis_per_switch;
    xy = d.Config.routing = Config.Xy;
  }

let to_noc_config c =
  {
    Config.default with
    freq_mhz = c.freq_mhz;
    slots = c.slots;
    nis_per_switch = c.nis_per_switch;
    routing = (if c.xy then Config.Xy else Config.Min_cost);
  }

type op =
  | Ping
  | Map of { name : string; spec : string; config : op_config }
  | Explore of {
      name : string;
      spec : string;
      config : op_config;
      frequencies : float list option;
      slot_counts : int list option;
      torus : bool;
    }
  | Lint of { name : string; spec : string; config : op_config; deep : bool }
  | Certify of { name : string; spec : string; config : op_config }
  | Remap of {
      from_name : string;
      from_spec : string;
      to_name : string;
      to_spec : string;
      config : op_config;
    }
  | Stats
  | Shutdown

type request = { id : int; op : op }

type error_code =
  | Overloaded
  | Too_many_inflight
  | Shutting_down
  | Bad_request
  | Spec_error
  | Exec_error
  | Version_mismatch

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Too_many_inflight -> "too-many-inflight"
  | Shutting_down -> "shutting-down"
  | Bad_request -> "bad-request"
  | Spec_error -> "spec-error"
  | Exec_error -> "exec-error"
  | Version_mismatch -> "version-mismatch"

let error_code_of_string = function
  | "overloaded" -> Some Overloaded
  | "too-many-inflight" -> Some Too_many_inflight
  | "shutting-down" -> Some Shutting_down
  | "bad-request" -> Some Bad_request
  | "spec-error" -> Some Spec_error
  | "exec-error" -> Some Exec_error
  | "version-mismatch" -> Some Version_mismatch
  | _ -> None

type response =
  | Result of { id : int; payload : string; coalesced : bool }
  | Failure of { id : int; code : error_code; message : string; retry_after_ms : int option }

(* --- handshake ----------------------------------------------------------- *)

(* One JSON object per line: serialize compact (indent 0 never emits a
   newline) and terminate with exactly one '\n'. *)
let line v = J.to_string v ^ "\n"

let greeting () =
  line
    (J.Obj
       [
         ("proto", J.Int proto_version);
         ("server", J.String "nocmap");
         ("build", J.String (Noc_util.Build_info.fingerprint ()));
       ])

let hello ?build () =
  let build = match build with Some b -> b | None -> Noc_util.Build_info.fingerprint () in
  line (J.Obj [ ("proto", J.Int proto_version); ("build", J.String build) ])

let hello_ok () =
  line
    (J.Obj
       [ ("ok", J.Bool true); ("build", J.String (Noc_util.Build_info.fingerprint ())) ])

let hello_reject ~message =
  line
    (J.Obj
       [
         ("ok", J.Bool false);
         ("error", J.String (error_code_to_string Version_mismatch));
         ("message", J.String message);
       ])

let parse_line text =
  match J.parse (String.trim text) with
  | Ok v -> Ok v
  | Error msg -> Error (Printf.sprintf "malformed JSON line: %s" msg)

let str_member k v = match J.member k v with Some (J.String s) -> Some s | _ -> None
let int_member k v = match J.member k v with Some (J.Int i) -> Some i | _ -> None
let bool_member k v = match J.member k v with Some (J.Bool b) -> Some b | _ -> None

let check_greeting text =
  match parse_line text with
  | Error e -> Error e
  | Ok v -> (
    match (int_member "proto" v, str_member "build" v) with
    | Some p, _ when p <> proto_version ->
      Error (Printf.sprintf "server speaks protocol %d, this client speaks %d" p proto_version)
    | Some _, Some build -> Ok build
    | _ -> Error "greeting missing \"proto\"/\"build\"")

let check_hello text =
  match parse_line text with
  | Error e -> Error e
  | Ok v -> (
    match (int_member "proto" v, str_member "build" v) with
    | Some p, _ when p <> proto_version ->
      Error (Printf.sprintf "client speaks protocol %d, this server speaks %d" p proto_version)
    | Some _, Some build ->
      let own = Noc_util.Build_info.fingerprint () in
      if String.equal build own then Ok ()
      else
        Error
          (Printf.sprintf
             "client build %s does not match server build %s (results would not be \
              byte-reproducible)"
             build own)
    | _ -> Error "hello missing \"proto\"/\"build\"")

let hello_verdict text =
  match parse_line text with
  | Error e -> Error e
  | Ok v -> (
    match bool_member "ok" v with
    | Some true -> Ok ()
    | Some false ->
      Error (Option.value (str_member "message" v) ~default:"handshake rejected")
    | None -> Error "handshake reply missing \"ok\"")

(* --- requests ------------------------------------------------------------ *)

let config_fields c =
  [
    ("freq_mhz", J.Float c.freq_mhz);
    ("slots", J.Int c.slots);
    ("nis_per_switch", J.Int c.nis_per_switch);
    ("xy", J.Bool c.xy);
  ]

let decode_config v =
  match J.member "config" v with
  | None -> Ok default_config
  | Some c -> (
    let num k d = match Option.bind (J.member k c) J.to_float with Some f -> f | None -> d in
    let int k d = match int_member k c with Some i -> i | None -> d in
    let flag k d = match bool_member k c with Some b -> b | None -> d in
    match c with
    | J.Obj _ ->
      Ok
        {
          freq_mhz = num "freq_mhz" default_config.freq_mhz;
          slots = int "slots" default_config.slots;
          nis_per_switch = int "nis_per_switch" default_config.nis_per_switch;
          xy = flag "xy" default_config.xy;
        }
    | _ -> Error "\"config\" must be an object")

let list_member k ~what of_json v =
  let bad = Error (Printf.sprintf "\"%s\" must be a list of %s" k what) in
  match J.member k v with
  | None -> Ok None
  | Some (J.List items) ->
    let xs = List.filter_map of_json items in
    if List.compare_lengths xs items = 0 then Ok (Some xs) else bad
  | Some _ -> bad

(* The fields every single-spec op starts with. *)
let spec_fields op ~name ~spec ~config rest =
  ("op", J.String op) :: ("name", J.String name) :: ("spec", J.String spec)
  :: ("config", J.Obj (config_fields config)) :: rest

let encode_op = function
  | Ping -> [ ("op", J.String "ping") ]
  | Map { name; spec; config } -> spec_fields "map" ~name ~spec ~config []
  | Explore { name; spec; config; frequencies; slot_counts; torus } ->
    spec_fields "explore" ~name ~spec ~config
      ((match frequencies with
       | None -> []
       | Some fs -> [ ("frequencies", J.List (List.map (fun f -> J.Float f) fs)) ])
      @ (match slot_counts with
        | None -> []
        | Some ss -> [ ("slot_counts", J.List (List.map (fun s -> J.Int s) ss)) ])
      @ [ ("torus", J.Bool torus) ])
  | Lint { name; spec; config; deep } ->
    spec_fields "lint" ~name ~spec ~config [ ("deep", J.Bool deep) ]
  | Certify { name; spec; config } -> spec_fields "certify" ~name ~spec ~config []
  | Remap { from_name; from_spec; to_name; to_spec; config } ->
    [
      ("op", J.String "remap");
      ("from_name", J.String from_name);
      ("from", J.String from_spec);
      ("to_name", J.String to_name);
      ("to", J.String to_spec);
      ("config", J.Obj (config_fields config));
    ]
  | Stats -> [ ("op", J.String "stats") ]
  | Shutdown -> [ ("op", J.String "shutdown") ]

let encode_request { id; op } = line (J.Obj (("id", J.Int id) :: encode_op op))

let decode_request text =
  let ( let* ) = Result.bind in
  let* v = parse_line text in
  let* id = match int_member "id" v with Some i -> Ok i | None -> Error "missing integer \"id\"" in
  let* opname =
    match str_member "op" v with Some s -> Ok s | None -> Error "missing string \"op\""
  in
  let need k = match str_member k v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string \"%s\"" k)
  in
  let* op =
    match opname with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | ("map" | "explore" | "lint" | "certify") as kind -> (
      let* name = need "name" in
      let* spec = need "spec" in
      let* config = decode_config v in
      let flag k = Option.value (bool_member k v) ~default:false in
      match kind with
      | "map" -> Ok (Map { name; spec; config })
      | "explore" ->
        let* frequencies = list_member "frequencies" ~what:"numbers" J.to_float v in
        let* slot_counts =
          list_member "slot_counts" ~what:"integers" (function J.Int i -> Some i | _ -> None) v
        in
        Ok (Explore { name; spec; config; frequencies; slot_counts; torus = flag "torus" })
      | "lint" -> Ok (Lint { name; spec; config; deep = flag "deep" })
      | _ -> Ok (Certify { name; spec; config }))
    | "remap" ->
      let* from_name = need "from_name" in
      let* from_spec = need "from" in
      let* to_name = need "to_name" in
      let* to_spec = need "to" in
      let* config = decode_config v in
      Ok (Remap { from_name; from_spec; to_name; to_spec; config })
    | other -> Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { id; op }

(* --- responses ----------------------------------------------------------- *)

let encode_response = function
  | Result { id; payload; coalesced } ->
    line
      (J.Obj
         [
           ("id", J.Int id);
           ("ok", J.Bool true);
           ("coalesced", J.Bool coalesced);
           ("payload", J.String payload);
         ])
  | Failure { id; code; message; retry_after_ms } ->
    line
      (J.Obj
         ([
            ("id", J.Int id);
            ("ok", J.Bool false);
            ("error", J.String (error_code_to_string code));
            ("message", J.String message);
          ]
         @
         match retry_after_ms with
         | Some ms -> [ ("retry_after_ms", J.Int ms) ]
         | None -> []))

let escape_payload = J.escape

let encode_result_preescaped ~id ~coalesced ~escaped_payload =
  (* Byte-identical to [encode_response (Result ...)] with the payload
     escaping hoisted out, so a coalesced fan-out escapes one large
     payload once instead of once per requester (checked by test). *)
  Printf.sprintf "{\"id\": %d,\"ok\": true,\"coalesced\": %b,\"payload\": \"%s\"}\n" id
    coalesced escaped_payload

let decode_response text =
  let ( let* ) = Result.bind in
  let* v = parse_line text in
  let* id = match int_member "id" v with Some i -> Ok i | None -> Error "missing integer \"id\"" in
  match bool_member "ok" v with
  | Some true -> (
    match str_member "payload" v with
    | Some payload ->
      Ok (Result { id; payload; coalesced = Option.value (bool_member "coalesced" v) ~default:false })
    | None -> Error "ok response missing \"payload\"")
  | Some false -> (
    match Option.bind (str_member "error" v) error_code_of_string with
    | Some code ->
      Ok
        (Failure
           {
             id;
             code;
             message = Option.value (str_member "message" v) ~default:"";
             retry_after_ms = int_member "retry_after_ms" v;
           })
    | None -> Error "error response missing a known \"error\" code")
  | None -> Error "response missing \"ok\""

let response_id = function Result { id; _ } -> id | Failure { id; _ } -> id
