(* Serve-mode tests: the wire protocol's round-trips and handshake,
   the scheduler core's single-flight coalescing and batch execution
   (pure, no sockets), and the live daemon end to end —
   byte-identical payloads under concurrency with exactly one
   underlying solve, admission control (queue and per-client caps),
   version-mismatch rejection, and graceful shutdown that drains
   in-flight work and flushes the persistent cache tier. *)

module P = Noc_serve.Protocol
module Service = Noc_serve.Service
module Server = Noc_serve.Server
module Client = Noc_serve.Client
module Payload = Noc_serve.Payload
module Metrics = Noc_obs.Metrics
module DF = Noc_core.Design_flow
module SD = Noc_benchkit.Soc_designs
module Spec_parser = Noc_core.Spec_parser
module Mapping_cache = Noc_core.Mapping_cache

let spec_text name ucs = Spec_parser.to_text (DF.spec_of_use_cases ~name ucs)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let d1_text = lazy (spec_text "d1" (SD.d1 ()))

let map_op ?(config = P.default_config) name text = P.Map { name; spec = text; config }

(* --- protocol ------------------------------------------------------------- *)

let sample_ops () =
  let text = Lazy.force d1_text in
  [
    P.Ping;
    P.Stats;
    P.Shutdown;
    map_op "d1" text;
    P.Explore
      {
        name = "d1";
        spec = text;
        config = P.default_config;
        frequencies = Some [ 250.0; 500.0 ];
        slot_counts = Some [ 16; 32 ];
        torus = true;
      };
    P.Explore
      {
        name = "d1";
        spec = text;
        config = { P.default_config with slots = 16 };
        frequencies = None;
        slot_counts = None;
        torus = false;
      };
    P.Lint { name = "d1"; spec = text; config = P.default_config; deep = true };
    P.Certify { name = "d1"; spec = text; config = P.default_config };
    P.Remap
      {
        from_name = "d1";
        from_spec = text;
        to_name = "d1b";
        to_spec = text;
        config = P.default_config;
      };
  ]

let test_request_roundtrip () =
  List.iteri
    (fun i op ->
      let line = P.encode_request { P.id = i; op } in
      match P.decode_request line with
      | Error msg -> Alcotest.failf "request %d did not decode: %s" i msg
      | Ok req ->
        Alcotest.(check int) "id survives" i req.P.id;
        Alcotest.(check string)
          (Printf.sprintf "op %d re-encodes identically" i)
          line
          (P.encode_request req))
    (sample_ops ())

let test_response_roundtrip () =
  let responses =
    [
      P.Result { id = 3; payload = "line one\nline two\n"; coalesced = true };
      P.Result { id = 0; payload = ""; coalesced = false };
      P.Failure { id = 9; code = P.Overloaded; message = "queue full"; retry_after_ms = Some 50 };
      P.Failure { id = -1; code = P.Bad_request; message = "no"; retry_after_ms = None };
    ]
  in
  List.iter
    (fun r ->
      let line = P.encode_response r in
      Alcotest.(check bool) "one line" true (String.index line '\n' = String.length line - 1);
      match P.decode_response line with
      | Error msg -> Alcotest.failf "response did not decode: %s" msg
      | Ok r' -> Alcotest.(check string) "re-encodes identically" line (P.encode_response r'))
    responses

let test_preescaped_encoding () =
  List.iter
    (fun (id, coalesced, payload) ->
      Alcotest.(check string) "preescaped == encode_response"
        (P.encode_response (P.Result { id; payload; coalesced }))
        (P.encode_result_preescaped ~id ~coalesced
           ~escaped_payload:(P.escape_payload payload)))
    [
      (0, false, "");
      (7, true, "line one\nline \"two\"\\\n");
      (42, true, Lazy.force d1_text);
      (3, false, "tab\thigh\x01low");
    ]

let test_error_codes () =
  List.iter
    (fun c ->
      match P.error_code_of_string (P.error_code_to_string c) with
      | Some c' -> Alcotest.(check bool) "code round-trips" true (c = c')
      | None -> Alcotest.fail "code did not round-trip")
    [
      P.Overloaded; P.Too_many_inflight; P.Shutting_down; P.Bad_request; P.Spec_error;
      P.Exec_error; P.Version_mismatch;
    ]

let test_handshake () =
  (match P.check_greeting (P.greeting ()) with
  | Ok build ->
    Alcotest.(check string) "greeting carries our build" (Noc_util.Build_info.fingerprint ()) build
  | Error msg -> Alcotest.failf "own greeting rejected: %s" msg);
  (match P.check_hello (P.hello ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "own hello rejected: %s" msg);
  (match P.check_hello (P.hello ~build:"deadbeef" ()) with
  | Ok () -> Alcotest.fail "foreign build accepted"
  | Error msg ->
    Alcotest.(check bool)
      "mismatch names both builds" true
      (contains_sub msg "does not match"));
  match P.hello_verdict (P.hello_ok ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "own hello_ok rejected: %s" msg

(* --- scheduler core (no sockets) ------------------------------------------ *)

let prepare_exn op =
  match Service.prepare op with
  | Ok job -> job
  | Error (_, msg) -> Alcotest.failf "prepare failed: %s" msg

let test_plan_coalesces () =
  let text = Lazy.force d1_text in
  let jobs = Array.init 8 (fun _ -> prepare_exn (map_op "d1" text)) in
  let plan = Service.plan jobs in
  Alcotest.(check int) "one unique job" 1 (Array.length plan.Service.unique);
  Alcotest.(check int) "seven coalesced" 7 plan.Service.coalesced;
  Array.iter (Alcotest.(check int) "all assigned to slot 0" 0) plan.Service.assign;
  (* A cosmetically different text posing the same named problem
     coalesces; a different config does not. *)
  let commented = text ^ "# a trailing comment\n" in
  let other_config = { P.default_config with slots = 16 } in
  let jobs' =
    [|
      prepare_exn (map_op "d1" text);
      prepare_exn (map_op "d1" commented);
      prepare_exn (map_op ~config:other_config "d1" text);
    |]
  in
  let plan' = Service.plan jobs' in
  Alcotest.(check int) "comment coalesces, config splits" 2 (Array.length plan'.Service.unique);
  Alcotest.(check int) "assign comment to first" plan'.Service.assign.(0)
    plan'.Service.assign.(1);
  (* Same problem under a different op never coalesces. *)
  let mixed =
    [|
      prepare_exn (map_op "d1" text);
      prepare_exn (P.Certify { name = "d1"; spec = text; config = P.default_config });
    |]
  in
  Alcotest.(check int) "map and certify stay distinct" 2
    (Array.length (Service.plan mixed).Service.unique)

(* Two explore jobs whose grids overlap (500 MHz x {16, 32} slots)
   run as one batch with the cache on: each payload must equal the
   bytes of that job run alone from an empty cache. *)
let test_explore_batch_overlap () =
  let text = Lazy.force d1_text in
  let explore frequencies =
    prepare_exn
      (P.Explore
         {
           name = "d1";
           spec = text;
           config = P.default_config;
           frequencies = Some frequencies;
           slot_counts = Some [ 16; 32 ];
           torus = false;
         })
  in
  let jobs = [| explore [ 250.0; 500.0 ]; explore [ 500.0; 1000.0 ] |] in
  Mapping_cache.set_enabled true;
  let alone =
    Array.map
      (fun j ->
        Mapping_cache.clear ();
        match Service.execute j with
        | Ok payload -> payload
        | Error msg -> Alcotest.failf "explore failed alone: %s" msg)
      jobs
  in
  Mapping_cache.clear ();
  Array.iteri
    (fun i r ->
      match r with
      | Ok payload -> Alcotest.(check string) "batched == alone" alone.(i) payload
      | Error msg -> Alcotest.failf "explore failed in the batch: %s" msg)
    (Service.execute_batch jobs)

(* Specs that resolve but cannot expand used to escape [prepare] as
   exceptions; they are located spec errors now. *)
let self_smooth_text = "cores 3\nuse-case a\n  flow 0 -> 1 bw 10\nuse-case b\n  flow 1 -> 2 bw 10\nsmooth a a\n"

let duplicate_parallel_text =
  "cores 3\nuse-case a\n  flow 0 -> 1 bw 10\nuse-case b\n  flow 1 -> 2 bw 10\nparallel a b a\n"

let test_prepare_unexpandable () =
  List.iter
    (fun (what, text) ->
      List.iter
        (fun op ->
          match Service.prepare op with
          | Error (P.Spec_error, msg) ->
            Alcotest.(check bool) (what ^ ": located on line 6") true (contains_sub msg "line 6")
          | Error (code, _) -> Alcotest.failf "%s: wrong code %s" what (P.error_code_to_string code)
          | Ok _ -> Alcotest.failf "%s: accepted" what)
        [
          map_op what text;
          P.Certify { name = what; spec = text; config = P.default_config };
          P.Explore
            {
              name = what;
              spec = text;
              config = P.default_config;
              frequencies = None;
              slot_counts = None;
              torus = false;
            };
        ])
    [ ("self-smooth", self_smooth_text); ("duplicate-parallel", duplicate_parallel_text) ]

let test_prepare_rejects () =
  (match Service.prepare (map_op "bad" "cores nope\n") with
  | Error (P.Spec_error, _) -> ()
  | Error _ -> Alcotest.fail "wrong error code"
  | Ok _ -> Alcotest.fail "garbage spec accepted");
  match Service.prepare P.Ping with
  | Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "control op accepted as executable"

(* Every executable op over one spec text and config. *)
let all_ops ~name ~config text =
  [
    map_op ~config name text;
    P.Certify { name; spec = text; config };
    P.Explore { name; spec = text; config; frequencies = None; slot_counts = None; torus = false };
    P.Remap { from_name = name; from_spec = text; to_name = name; to_spec = text; config };
    P.Lint { name; spec = text; config; deep = false };
  ]

let is_lint = function P.Lint _ -> true | _ -> false

(* A config the engine would raise on is a bad request, not an
   internal error; lint keeps reporting it as a [config] diagnostic. *)
let test_prepare_invalid_config () =
  let text = Lazy.force d1_text in
  let d = P.default_config in
  List.iter
    (fun (what, config) ->
      List.iter
        (fun op ->
          match (Service.prepare op, is_lint op) with
          | Error (P.Bad_request, msg), false ->
            Alcotest.(check bool) (what ^ ": says why") true
              (contains_sub msg "invalid configuration")
          | Ok job, true -> (
            match Service.run job with
            | Ok (Payload.Lint r) ->
              Alcotest.(check bool) (what ^ ": lint config error") true
                (List.exists
                   (fun (dg : Noc_analysis.Diagnostic.t) -> dg.pass = "config")
                   r.Noc_analysis.Analyzer.diagnostics)
            | _ -> Alcotest.failf "%s: lint did not report" what)
          | Error (code, _), _ -> Alcotest.failf "%s: wrong code %s" what (P.error_code_to_string code)
          | Ok _, _ -> Alcotest.failf "%s: accepted" what)
        (all_ops ~name:"d1" ~config text))
    [
      ("slots 0", { d with P.slots = 0 });
      ("freq 0", { d with P.freq_mhz = 0.0 });
      ("freq inf", { d with P.freq_mhz = infinity });
      ("freq nan", { d with P.freq_mhz = nan });
      ("nis 0", { d with P.nis_per_switch = 0 });
    ]

(* Non-finite flow numbers are located spec errors for every op (lint
   reports the same located [syntax] error). *)
let test_prepare_non_finite_flows () =
  List.iter
    (fun opts ->
      let text = Printf.sprintf "name t\ncores 4\nuse-case a\n  flow 0 -> 1 %s\n" opts in
      List.iter
        (fun op ->
          match (Service.prepare op, is_lint op) with
          | Error (P.Spec_error, msg), false ->
            Alcotest.(check bool) (opts ^ ": located on line 4") true (contains_sub msg "line 4")
          | Ok job, true -> (
            match Service.run job with
            | Ok (Payload.Lint r) ->
              Alcotest.(check bool) (opts ^ ": lint syntax error on line 4") true
                (List.exists
                   (fun (dg : Noc_analysis.Diagnostic.t) ->
                     dg.pass = "syntax" && dg.line = Some 4)
                   r.Noc_analysis.Analyzer.diagnostics)
            | _ -> Alcotest.failf "%s: lint did not report" opts)
          | Error (code, _), _ -> Alcotest.failf "%s: wrong code %s" opts (P.error_code_to_string code)
          | Ok _, _ -> Alcotest.failf "%s: accepted" opts)
        (all_ops ~name:"t" ~config:P.default_config text))
    [ "bw nan"; "bw inf"; "bw 5 lat nan" ]

(* --- payload output ----------------------------------------------------------

   The CLI streams payloads with [Payload.output]; the daemon sends
   [Payload.render]'s string.  Both run the same JSON writer, and the
   streamed file must hold exactly the rendered bytes. *)

let via_channel write =
  let file = Filename.temp_file "nocmap-payload" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file write;
      In_channel.with_open_bin file In_channel.input_all)

let outcome_of op =
  match Service.prepare op with
  | Error (_, msg) -> Alcotest.failf "prepare: %s" msg
  | Ok job -> (
    match Service.run job with Ok o -> o | Error msg -> Alcotest.failf "run: %s" msg)

let test_output_equals_render () =
  let designs =
    List.map
      (fun (n, ucs) -> (n, spec_text n ucs))
      [ ("d1", SD.d1 ()); ("d2", SD.d2 ()); ("d3", SD.d3 ()); ("d4", SD.d4 ()) ]
  in
  let d2 = List.assoc "d2" designs in
  let churned = spec_text "d2-churn" (List.tl (SD.d2 ())) in
  let ops =
    List.map (fun (name, text) -> (name ^ " map", map_op name text)) designs
    @ [
        ( "d2 explore",
          P.Explore
            {
              name = "d2";
              spec = d2;
              config = P.default_config;
              frequencies = Some [ 250.0; 500.0 ];
              slot_counts = Some [ 16; 32 ];
              torus = true;
            } );
        ("d2 lint", P.Lint { name = "d2"; spec = d2; config = P.default_config; deep = true });
        ("d2 certify", P.Certify { name = "d2"; spec = d2; config = P.default_config });
        ( "d2 remap",
          P.Remap
            {
              from_name = "d2";
              from_spec = d2;
              to_name = "d2-churn";
              to_spec = churned;
              config = P.default_config;
            } );
      ]
  in
  List.iter
    (fun (what, op) ->
      let outcome = outcome_of op in
      Alcotest.(check string) (what ^ ": output == render") (Payload.render outcome)
        (via_channel (fun oc -> Payload.output oc outcome)))
    ops

(* An Sp40 design is about 1 MB, so the writer hands its buffer over
   at many item boundaries. *)
let test_to_channel_chunks () =
  let module Syn = Noc_benchkit.Synthetic in
  let ucs = Syn.generate ~seed:200 ~params:Syn.spread_params ~use_cases:40 in
  match DF.run (DF.spec_of_use_cases ~name:"sp40" ucs) with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let v = Noc_export.Design_export.design d in
    List.iter
      (fun indent ->
        let expected = Noc_export.Json.to_string ~indent v in
        Alcotest.(check bool) "larger than one chunk" true (String.length expected > 4 * 65536);
        Alcotest.(check string)
          (Printf.sprintf "to_channel == to_string at indent %d" indent)
          expected
          (via_channel (fun oc -> Noc_export.Json.to_channel ~indent oc v)))
      [ 0; 2 ]

(* --- live daemon ----------------------------------------------------------- *)

let socket_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nocmap-test-%d-%s.sock" (Unix.getpid ()) name)

let start_server cfg =
  let handle = Domain.spawn (fun () -> Server.run cfg) in
  (* Wait for the socket to accept connections. *)
  let rec wait tries =
    if tries = 0 then Alcotest.fail "server socket never came up"
    else
      match Client.connect ~socket:cfg.Server.socket_path () with
      | Ok c -> Client.close c
      | Error _ ->
        Unix.sleepf 0.05;
        wait (tries - 1)
  in
  wait 100;
  handle

let join_server handle =
  match Domain.join handle with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "server exited with: %s" msg

let request_exn conn op =
  match Client.request conn op with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

let payload_exn = function
  | P.Result { payload; _ } -> payload
  | P.Failure { code; message; _ } ->
    Alcotest.failf "request failed: %s: %s" (P.error_code_to_string code) message

let test_single_flight () =
  let text = Lazy.force d1_text in
  let config = P.to_noc_config P.default_config in
  Mapping_cache.set_enabled true;
  Mapping_cache.clear ();
  Metrics.reset ();
  (* Baseline: the attempts one cold solve of this problem costs, and
     the exact payload it produces. *)
  let spec =
    match Spec_parser.parse ~name:"d1" text with
    | Ok s -> s
    | Error _ -> Alcotest.fail "baseline spec did not parse"
  in
  let expected =
    match DF.run ~config spec with
    | Ok d -> Payload.design d
    | Error msg -> Alcotest.failf "baseline run failed: %s" msg
  in
  let attempts = Metrics.counter "map.attempts" in
  let baseline_attempts = Metrics.counter_value attempts in
  Alcotest.(check bool) "cold solve attempts something" true (baseline_attempts > 0);
  (* Now serve the same problem to 6 concurrent clients from a cold
     cache: every payload must be byte-identical to the one-shot
     design, and the cost must be one solve - coalescing within a
     batch, the shared cache across batches. *)
  Mapping_cache.clear ();
  Metrics.reset ();
  let cfg =
    { (Server.default_config ~socket_path:(socket_path "flight")) with linger_ms = 150.0 }
  in
  let handle = start_server cfg in
  let clients =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            match Client.connect ~socket:cfg.Server.socket_path () with
            | Error msg -> Error msg
            | Ok conn ->
              let r = Client.request conn (map_op "d1" text) in
              Client.close conn;
              r))
  in
  let results = List.map Domain.join clients in
  List.iter
    (fun r ->
      match r with
      | Ok response ->
        Alcotest.(check string) "served payload == one-shot bytes" expected
          (payload_exn response)
      | Error msg -> Alcotest.failf "client failed: %s" msg)
    results;
  Alcotest.(check int) "exactly one underlying solve" baseline_attempts
    (Metrics.counter_value attempts);
  Alcotest.(check bool) "serve.requests counted" true
    (Metrics.counter_value (Metrics.counter "serve.requests") >= 6);
  Server.stop ();
  join_server handle

let test_backpressure_queue () =
  let text = Lazy.force d1_text in
  let cfg =
    {
      (Server.default_config ~socket_path:(socket_path "queue")) with
      max_queue = 1;
      linger_ms = 600.0;
      retry_after_ms = 75;
    }
  in
  let handle = start_server cfg in
  (* First request occupies the whole queue for the linger window;
     a second, from another client, must be shed - not stalled. *)
  let first =
    Domain.spawn (fun () ->
        match Client.connect ~socket:cfg.Server.socket_path () with
        | Error msg -> Error msg
        | Ok conn ->
          let r = Client.request conn (map_op "d1" text) in
          Client.close conn;
          r)
  in
  Unix.sleepf 0.2;
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "second client connect failed: %s" msg
  | Ok conn -> (
    match request_exn conn (map_op "d1" text) with
    | P.Failure { code = P.Overloaded; retry_after_ms; _ } ->
      Alcotest.(check (option int)) "retry-after hint" (Some 75) retry_after_ms;
      Client.close conn
    | P.Failure { code; _ } ->
      Alcotest.failf "expected overloaded, got %s" (P.error_code_to_string code)
    | P.Result _ -> Alcotest.fail "second request should have been shed"));
  (match Domain.join first with
  | Ok (P.Result _) -> ()
  | Ok (P.Failure { message; _ }) -> Alcotest.failf "first request failed: %s" message
  | Error msg -> Alcotest.failf "first client failed: %s" msg);
  Server.stop ();
  join_server handle

let test_backpressure_inflight () =
  let text = Lazy.force d1_text in
  let cfg =
    {
      (Server.default_config ~socket_path:(socket_path "inflight")) with
      max_inflight = 1;
      linger_ms = 600.0;
    }
  in
  let handle = start_server cfg in
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "connect failed: %s" msg
  | Ok conn ->
    (* Pipeline two requests without reading: the second exceeds the
       per-client cap and fails immediately; the first still completes. *)
    let id0 = Client.send conn (map_op "d1" text) in
    let id1 = Client.send conn (map_op "d1" text) in
    let r1 = Client.recv conn in
    let r0 = Client.recv conn in
    (match r1 with
    | Ok (P.Failure { id; code = P.Too_many_inflight; retry_after_ms; _ }) ->
      Alcotest.(check int) "shed response echoes the second id" id1 id;
      Alcotest.(check bool) "carries a retry hint" true (retry_after_ms <> None)
    | Ok _ -> Alcotest.fail "second pipelined request was not shed"
    | Error msg -> Alcotest.failf "recv failed: %s" msg);
    (match r0 with
    | Ok (P.Result { id; _ }) -> Alcotest.(check int) "first id completes" id0 id
    | Ok (P.Failure { message; _ }) -> Alcotest.failf "first request failed: %s" message
    | Error msg -> Alcotest.failf "recv failed: %s" msg);
    Client.close conn);
  Server.stop ();
  join_server handle

let test_version_mismatch () =
  let cfg = Server.default_config ~socket_path:(socket_path "vers") in
  let handle = start_server cfg in
  (match Client.connect ~build:"deadbeef" ~socket:cfg.Server.socket_path () with
  | Ok _ -> Alcotest.fail "mismatched build accepted"
  | Error msg ->
    Alcotest.(check bool) "rejection names the mismatch" true
      (contains_sub msg "does not match"));
  (* The server survives the rejection and still serves matched clients. *)
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "matched client rejected after mismatch: %s" msg
  | Ok conn ->
    (match request_exn conn P.Ping with
    | P.Result { payload; _ } -> Alcotest.(check string) "pong" "pong" payload
    | P.Failure _ -> Alcotest.fail "ping failed");
    Client.close conn);
  Server.stop ();
  join_server handle

let test_graceful_shutdown () =
  let text = Lazy.force d1_text in
  let dir = Filename.temp_file "nocmap-serve-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Mapping_cache.set_enabled true;
  Mapping_cache.clear ();
  Mapping_cache.set_dir (Some dir);
  let cfg = Server.default_config ~socket_path:(socket_path "drain") in
  let handle = start_server cfg in
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "connect failed: %s" msg
  | Ok conn ->
    (* Admit work, then ask for shutdown on the same connection: the
       admitted request must still complete before the server exits. *)
    let id0 = Client.send conn (map_op "d1" text) in
    let id1 = Client.send conn P.Shutdown in
    let seen = ref [] in
    for _ = 1 to 2 do
      match Client.recv conn with
      | Ok r -> seen := r :: !seen
      | Error msg -> Alcotest.failf "recv failed: %s" msg
    done;
    let find id = List.find_opt (fun r -> P.response_id r = id) !seen in
    (match find id0 with
    | Some (P.Result { payload; _ }) ->
      Alcotest.(check bool) "drained payload is a design" true
        (contains_sub payload "\"design\"" || contains_sub payload "switches")
    | _ -> Alcotest.fail "admitted request was not drained");
    (match find id1 with
    | Some (P.Result { payload; _ }) -> Alcotest.(check string) "ack" "draining" payload
    | _ -> Alcotest.fail "shutdown not acknowledged");
    Client.close conn);
  join_server handle;
  (* The drain unlinked the socket and flushed the disk tier's STATS. *)
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists cfg.Server.socket_path);
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Ok _ -> Alcotest.fail "connected to a stopped server"
  | Error _ -> ());
  let version = Noc_util.Build_info.fingerprint () in
  (match Noc_util.Result_cache.read_persisted_stats ~dir ~version with
  | Some s -> Alcotest.(check bool) "flushed stats record stores" true (s.Noc_util.Result_cache.stores > 0)
  | None -> Alcotest.fail "no STATS flushed to the disk tier");
  Mapping_cache.set_dir None

let test_bad_requests () =
  let cfg = Server.default_config ~socket_path:(socket_path "bad") in
  let handle = start_server cfg in
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "connect failed: %s" msg
  | Ok conn ->
    (match request_exn conn (map_op "oops" "cores banana\n") with
    | P.Failure { code = P.Spec_error; _ } -> ()
    | P.Failure { code; _ } ->
      Alcotest.failf "expected spec-error, got %s" (P.error_code_to_string code)
    | P.Result _ -> Alcotest.fail "garbage spec mapped");
    (* A config the engine would raise on is refused up front. *)
    (match
       request_exn conn
         (map_op ~config:{ P.default_config with slots = 0 } "d1" (Lazy.force d1_text))
     with
    | P.Failure { code = P.Bad_request; _ } -> ()
    | P.Failure { code; _ } ->
      Alcotest.failf "expected bad-request, got %s" (P.error_code_to_string code)
    | P.Result _ -> Alcotest.fail "zero-slot config mapped");
    (* An unmappable (but well-formed) problem is an exec error. *)
    (* A 16-core chain of link-saturating flows: the co-location
       closure exceeds one switch's NIs, so every mesh size is
       statically refuted and the map fails fast. *)
    let impossible =
      Buffer.create 256 |> fun b ->
      Buffer.add_string b "name impossible\ncores 16\nuse-case u\n";
      for i = 0 to 14 do
        Buffer.add_string b (Printf.sprintf "flow %d -> %d bw 1e9\n" i (i + 1))
      done;
      Buffer.contents b
    in
    (match request_exn conn (map_op "impossible" impossible) with
    | P.Failure { code = P.Exec_error; _ } -> ()
    | P.Failure { code; _ } ->
      Alcotest.failf "expected exec-error, got %s" (P.error_code_to_string code)
    | P.Result _ -> Alcotest.fail "impossible bandwidth mapped");
    Client.close conn);
  Server.stop ();
  join_server handle

(* The daemon splits request lines as the bytes arrive: one ~200 KB
   map request written 1-7 bytes at a time, then two requests in one
   write.  Every reply carries [Service.execute]'s exact payload, in
   request order. *)
let test_split_lines () =
  let cfg = Server.default_config ~socket_path:(socket_path "split") in
  let handle = start_server cfg in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX cfg.Server.socket_path);
  let ic = Unix.in_channel_of_descr fd in
  let write_all s =
    let rec go pos =
      if pos < String.length s then
        go (pos + Unix.write_substring fd s pos (String.length s - pos))
    in
    go 0
  in
  (match P.check_greeting (input_line ic) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "greeting: %s" msg);
  write_all (P.hello ());
  (match P.hello_verdict (input_line ic) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "handshake: %s" msg);
  let text = Lazy.force d1_text in
  let expected op =
    match Service.execute (prepare_exn op) with
    | Ok payload -> payload
    | Error msg -> Alcotest.failf "one-shot execute failed: %s" msg
  in
  let reply id op =
    match P.decode_response (input_line ic) with
    | Ok (P.Result { id = got; payload; _ }) ->
      Alcotest.(check int) "replies in request order" id got;
      Alcotest.(check string) "reply == Service.execute payload" (expected op) payload
    | Ok (P.Failure { message; _ }) -> Alcotest.failf "request %d failed: %s" id message
    | Error msg -> Alcotest.failf "undecodable reply: %s" msg
  in
  let padding =
    String.concat "" (List.init 7000 (fun i -> Printf.sprintf "# padding comment line %06d\n" i))
  in
  let big = map_op "d1" (text ^ padding) in
  let line = P.encode_request { P.id = 0; op = big } in
  Alcotest.(check bool) "request is ~200 KB" true (String.length line >= 200_000);
  let rng = Random.State.make [| 23 |] in
  let rec dribble pos =
    if pos < String.length line then begin
      let k = min (1 + Random.State.int rng 7) (String.length line - pos) in
      write_all (String.sub line pos k);
      dribble (pos + k)
    end
  in
  dribble 0;
  reply 0 big;
  let map_d1 = map_op "d1" text
  and lint_d1 = P.Lint { name = "d1"; spec = text; config = P.default_config; deep = false } in
  write_all (P.encode_request { P.id = 1; op = map_d1 } ^ P.encode_request { P.id = 2; op = lint_d1 });
  reply 1 map_d1;
  reply 2 lint_d1;
  Unix.close fd;
  Server.stop ();
  join_server handle

(* A served spec that resolves but cannot expand once killed the
   daemon; it must answer spec-error and keep serving. *)
let test_unexpandable_spec_survives () =
  let cfg = Server.default_config ~socket_path:(socket_path "unexpandable") in
  let handle = start_server cfg in
  (match Client.connect ~socket:cfg.Server.socket_path () with
  | Error msg -> Alcotest.failf "connect failed: %s" msg
  | Ok conn ->
    List.iter
      (fun (name, text) ->
        match request_exn conn (map_op name text) with
        | P.Failure { code = P.Spec_error; _ } -> ()
        | P.Failure { code; _ } ->
          Alcotest.failf "%s: expected spec-error, got %s" name (P.error_code_to_string code)
        | P.Result _ -> Alcotest.failf "%s: mapped" name)
      [ ("self", self_smooth_text); ("dup", duplicate_parallel_text) ];
    (match request_exn conn P.Ping with
    | P.Result { payload; _ } -> Alcotest.(check string) "still answers ping" "pong" payload
    | P.Failure _ -> Alcotest.fail "ping failed");
    Client.close conn);
  Server.stop ();
  join_server handle

let test_pool_gauges () =
  Metrics.reset ();
  let r = Noc_util.Domain_pool.map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "pool still maps" [ 1; 4; 9; 16; 25; 36; 49; 64 ] r;
  let gauge name = Metrics.gauge_value (Metrics.gauge name) in
  Alcotest.(check bool) "utilization recorded" true (gauge "pool.utilization" > 0.0);
  Alcotest.(check (float 0.0)) "no busy workers at rest" 0.0 (gauge "pool.busy_workers");
  Alcotest.(check (float 0.0)) "queue drained" 0.0 (gauge "pool.queue_depth");
  Alcotest.(check bool) "utilization <= 1" true (gauge "pool.utilization" <= 1.0)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "pre-escaped fan-out encoding" `Quick test_preescaped_encoding;
          Alcotest.test_case "error codes" `Quick test_error_codes;
          Alcotest.test_case "handshake" `Quick test_handshake;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "plan coalesces by canonical key" `Quick test_plan_coalesces;
          Alcotest.test_case "explore batch == each alone" `Quick
            test_explore_batch_overlap;
          Alcotest.test_case "unexpandable specs rejected" `Quick
            test_prepare_unexpandable;
          Alcotest.test_case "prepare rejects garbage" `Quick test_prepare_rejects;
          Alcotest.test_case "invalid configs rejected" `Quick test_prepare_invalid_config;
          Alcotest.test_case "non-finite flows rejected" `Quick test_prepare_non_finite_flows;
        ] );
      ( "payload",
        [
          Alcotest.test_case "output == render" `Quick test_output_equals_render;
          Alcotest.test_case "to_channel chunks == to_string" `Quick test_to_channel_chunks;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "single flight, byte-identical" `Quick test_single_flight;
          Alcotest.test_case "queue backpressure sheds" `Quick test_backpressure_queue;
          Alcotest.test_case "per-client inflight cap" `Quick test_backpressure_inflight;
          Alcotest.test_case "version mismatch rejected" `Quick test_version_mismatch;
          Alcotest.test_case "graceful shutdown drains and flushes" `Quick
            test_graceful_shutdown;
          Alcotest.test_case "bad requests fail structurally" `Quick test_bad_requests;
          Alcotest.test_case "lines split as bytes arrive" `Quick test_split_lines;
          Alcotest.test_case "unexpandable spec survived" `Quick
            test_unexpandable_spec_survives;
        ] );
      ( "pool",
        [ Alcotest.test_case "busy/utilization gauges" `Quick test_pool_gauges ] );
    ]
