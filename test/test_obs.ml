(* Observability tests: the metrics registry, the span tracer, the
   Chrome export's well-formedness, and the PR's pinned invariant —
   instrumentation is passive, so a traced run exports byte-identical
   designs to an untraced one. *)

module Metrics = Noc_obs.Metrics
module Tracer = Noc_obs.Tracer
module J = Noc_export.Json
module DF = Noc_core.Design_flow
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs

(* Each test starts from clean instruments; registrations survive. *)
let fresh () =
  Tracer.set_enabled false;
  Tracer.reset ();
  Metrics.reset ()

(* --- metrics ------------------------------------------------------------- *)

let test_counter_basics () =
  fresh ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (Metrics.counter_value c);
  Alcotest.(check bool) "interned by name" true (c == Metrics.counter "test.counter");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

let test_counter_across_domains () =
  fresh ();
  let c = Metrics.counter "test.domains" in
  (* The pool's workers run on distinct domains, so the increments land
     on different stripes; the total must still be exact. *)
  let results =
    Noc_util.Domain_pool.map ~jobs:4
      (fun _ ->
        Metrics.incr c;
        1)
      (List.init 100 Fun.id)
  in
  Alcotest.(check int) "all tasks ran" 100 (List.fold_left ( + ) 0 results);
  Alcotest.(check int) "striped counter is exact" 100 (Metrics.counter_value c)

let test_gauge () =
  fresh ();
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "gauge holds last value" 2.5 (Metrics.gauge_value g)

let test_histogram_percentiles () =
  fresh ();
  let h = Metrics.histogram "test.hist" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let snap = Metrics.snapshot () in
  let stats = List.assoc "test.hist" snap.Metrics.histograms in
  Alcotest.(check int) "count" 100 stats.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 5050.0 stats.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 stats.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 stats.Metrics.max;
  Alcotest.(check (float 1e-9)) "p50 (nearest rank)" 50.0 stats.Metrics.p50;
  Alcotest.(check (float 1e-9)) "p90" 90.0 stats.Metrics.p90;
  Alcotest.(check (float 1e-9)) "p99" 99.0 stats.Metrics.p99

let test_snapshot_sorted_and_json_valid () =
  fresh ();
  Metrics.incr (Metrics.counter "test.b");
  Metrics.incr (Metrics.counter "test.a");
  Metrics.set (Metrics.gauge "test.g") 1.0;
  Metrics.observe (Metrics.histogram "test.h") 3.0;
  let snap = Metrics.snapshot () in
  let names = List.map fst snap.Metrics.counters in
  Alcotest.(check bool) "counters sorted by name" true (names = List.sort compare names);
  (match J.validate (Metrics.render_json snap) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "render_json is not valid JSON: %s" e);
  (* The CLI reads the file back through the same schema. *)
  match J.parse (Metrics.render_json snap) with
  | Error e -> Alcotest.failf "render_json does not parse: %s" e
  | Ok v -> (
    match J.member "counters" v with
    | Some (J.Obj fields) ->
      Alcotest.(check bool) "test.a survives the round trip" true
        (List.mem_assoc "test.a" fields)
    | _ -> Alcotest.fail "no counters object")

(* --- tracer -------------------------------------------------------------- *)

let test_disabled_records_nothing () =
  fresh ();
  let r = Tracer.with_span "off" (fun () -> 7) in
  Alcotest.(check int) "thunk result passes through" 7 r;
  Alcotest.(check int) "nothing recorded while disabled" 0 (List.length (Tracer.events ()))

let test_nesting_and_args () =
  fresh ();
  Tracer.set_enabled true;
  Tracer.with_span ~args:[ ("k", Tracer.Int 3) ] "outer" (fun () ->
      Tracer.with_span "inner" (fun () -> Tracer.add_arg "late" (Tracer.Bool true)));
  Tracer.set_enabled false;
  match Tracer.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first (by start)" "outer" outer.Tracer.name;
    Alcotest.(check int) "outer depth" 0 outer.Tracer.depth;
    Alcotest.(check int) "inner depth" 1 inner.Tracer.depth;
    Alcotest.(check bool) "outer keeps its args" true
      (List.mem ("k", Tracer.Int 3) outer.Tracer.args);
    Alcotest.(check bool) "add_arg lands on the open span" true
      (List.mem ("late", Tracer.Bool true) inner.Tracer.args);
    Alcotest.(check bool) "child starts within parent" true
      (Int64.compare inner.Tracer.start_ns outer.Tracer.start_ns >= 0);
    Alcotest.(check bool) "child ends within parent" true
      (Int64.compare
         (Int64.add inner.Tracer.start_ns inner.Tracer.dur_ns)
         (Int64.add outer.Tracer.start_ns outer.Tracer.dur_ns)
      <= 0)
  | evs -> Alcotest.failf "expected 2 spans, got %d" (List.length evs)

let test_exception_closes_span () =
  fresh ();
  Tracer.set_enabled true;
  (try Tracer.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Tracer.set_enabled false;
  match Tracer.events () with
  | [ e ] ->
    Alcotest.(check string) "span closed" "boom" e.Tracer.name;
    Alcotest.(check bool) "raised attribute" true
      (List.mem ("raised", Tracer.Bool true) e.Tracer.args)
  | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs)

let test_span_feeds_histogram () =
  fresh ();
  Tracer.set_enabled true;
  Tracer.with_span "fed" (fun () -> ());
  Tracer.set_enabled false;
  let snap = Metrics.snapshot () in
  let stats = List.assoc "span.fed" snap.Metrics.histograms in
  Alcotest.(check int) "one sample per closed span" 1 stats.Metrics.count

(* A traced design-flow run across domains: events must come out
   sorted, nested per domain, and the Chrome export must be valid JSON
   with non-negative microsecond timestamps in non-decreasing order. *)
let traced_d1 () =
  fresh ();
  Tracer.set_enabled true;
  (match DF.run (DF.spec_of_use_cases ~name:"obs-d1" (SD.d1 ())) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "D1 failed under tracing: %s" e);
  Tracer.set_enabled false;
  Tracer.events ()

let test_events_well_formed () =
  let events = traced_d1 () in
  Alcotest.(check bool) "design flow produced spans" true (List.length events >= 4);
  List.iter
    (fun (e : Tracer.event) ->
      Alcotest.(check bool) (e.Tracer.name ^ ": non-negative duration") true
        (Int64.compare e.Tracer.dur_ns 0L >= 0))
    events;
  let sorted = ref true in
  ignore
    (List.fold_left
       (fun prev (e : Tracer.event) ->
         if Int64.compare e.Tracer.start_ns prev < 0 then sorted := false;
         e.Tracer.start_ns)
       Int64.min_int events);
  Alcotest.(check bool) "events sorted by start across domains" true !sorted;
  (* Per-domain nesting: walk each domain's spans against a stack of
     enclosing end times. *)
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (e : Tracer.event) ->
      let stop = Int64.add e.Tracer.start_ns e.Tracer.dur_ns in
      let stack = Option.value (Hashtbl.find_opt stacks e.Tracer.domain) ~default:[] in
      let rec pop = function
        | top :: below when Int64.compare top e.Tracer.start_ns <= 0 -> pop below
        | s -> s
      in
      let stack = pop stack in
      (match stack with
      | top :: _ ->
        Alcotest.(check bool)
          (e.Tracer.name ^ ": contained in its enclosing span")
          true
          (Int64.compare stop top <= 0)
      | [] -> ());
      Hashtbl.replace stacks e.Tracer.domain (stop :: stack))
    events

let test_chrome_export_schema () =
  let _ = traced_d1 () in
  let text = Tracer.export_chrome () in
  (match J.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e);
  match J.parse text with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok v -> (
    match J.member "traceEvents" v with
    | Some (J.List events) ->
      let span_names = ref [] in
      let last_ts = ref neg_infinity in
      List.iter
        (fun e ->
          match J.member "ph" e with
          | Some (J.String "X") ->
            (match J.member "name" e with
            | Some (J.String n) -> span_names := n :: !span_names
            | _ -> Alcotest.fail "X event without a name");
            let num k =
              match Option.bind (J.member k e) J.to_float with
              | Some f -> f
              | None -> Alcotest.failf "X event missing numeric %s" k
            in
            let ts = num "ts" and dur = num "dur" in
            Alcotest.(check bool) "ts >= 0" true (ts >= 0.0);
            Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
            Alcotest.(check bool) "ts non-decreasing" true (ts +. 1e-3 >= !last_ts);
            last_ts := ts;
            (match J.member "pid" e with
            | Some (J.Int _) -> ()
            | _ -> Alcotest.fail "X event missing pid");
            (match J.member "tid" e with
            | Some (J.Int _) -> ()
            | _ -> Alcotest.fail "X event missing tid")
          | Some (J.String "M") -> ()
          | _ -> Alcotest.fail "unexpected event phase")
        events;
      List.iter
        (fun phase ->
          Alcotest.(check bool) (phase ^ " span present") true (List.mem phase !span_names))
        [ "design_flow"; "phase:expand"; "phase:map"; "phase:verify" ]
    | _ -> Alcotest.fail "no traceEvents list")

(* --- the pinned invariant: tracing is passive ---------------------------- *)

let export_with ~traced ucs =
  fresh ();
  Tracer.set_enabled traced;
  let r =
    match DF.run (DF.spec_of_use_cases ~name:"prop-obs" ucs) with
    | Ok d -> Ok (Noc_export.Design_export.design_to_string d)
    | Error e -> Error e
  in
  Tracer.set_enabled false;
  Tracer.reset ();
  r

let prop_traced_export_byte_identical =
  QCheck.Test.make ~name:"traced and untraced runs export byte-identical designs" ~count:25
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Syn.spread_params with cores = 8; flows_lo = 4; flows_hi = 10 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:(1 + (seed mod 3)) in
      match (export_with ~traced:false ucs, export_with ~traced:true ucs) with
      | Ok off, Ok on -> String.equal off on
      | Error off, Error on -> String.equal off on
      | _ -> false)

let test_d1_traced_export_identical () =
  let ucs = SD.d1 () in
  match (export_with ~traced:false ucs, export_with ~traced:true ucs) with
  | Ok off, Ok on -> Alcotest.(check string) "D1 export identical under tracing" off on
  | _ -> Alcotest.fail "D1 must map"

(* A D2 [map --json] as the CLI runs it: one [payload.write] span with
   the file's size, and the same bytes as an untraced run. *)
let map_json_with ~traced =
  fresh ();
  Tracer.set_enabled traced;
  let text = Noc_core.Spec_parser.to_text (DF.spec_of_use_cases ~name:"d2" (SD.d2 ())) in
  let op =
    Noc_serve.Protocol.Map { name = "d2"; spec = text; config = Noc_serve.Protocol.default_config }
  in
  let outcome =
    match Noc_serve.Service.prepare op with
    | Error (_, msg) -> Alcotest.fail msg
    | Ok job -> (
      match Noc_serve.Service.run job with Ok o -> o | Error msg -> Alcotest.fail msg)
  in
  let file = Filename.temp_file "nocmap-obs" ".json" in
  Out_channel.with_open_text file (fun oc -> Noc_serve.Payload.output oc outcome);
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  let writes =
    List.filter (fun (e : Tracer.event) -> e.name = "payload.write") (Tracer.events ())
  in
  Tracer.set_enabled false;
  Tracer.reset ();
  (bytes, writes)

let test_d2_map_json_payload_span () =
  let untraced, none = map_json_with ~traced:false in
  let traced, writes = map_json_with ~traced:true in
  Alcotest.(check int) "untraced records no span" 0 (List.length none);
  Alcotest.(check int) "one payload.write" 1 (List.length writes);
  (match List.assoc_opt "bytes" (List.hd writes).Tracer.args with
  | Some (Tracer.Int n) ->
    Alcotest.(check int) "bytes arg is the file size" (String.length traced) n
  | _ -> Alcotest.fail "payload.write has no int bytes arg");
  Alcotest.(check string) "traced map --json identical" untraced traced

(* A traced simulation runs the GT pass in its own [sim:gt] span next
   to [sim:event-loop], and returns the same bits as an untraced one. *)
let test_simulate_gt_span () =
  let module Sim = Noc_sim.Simulator in
  let module Route = Noc_arch.Route in
  let d =
    match DF.run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let u = List.hd d.DF.all_use_cases in
  let routes = Noc_core.Mapping.routes_of_use_case d.DF.mapping u.Noc_traffic.Use_case.id in
  let sources =
    List.filter_map
      (fun (r : Route.t) ->
        if r.Route.service = Route.Gt && r.Route.flow_id mod 2 = 0 then
          Some (r.Route.flow_id, Sim.On_off { period_slots = 64; duty = 0.25 })
        else None)
      routes
  in
  let run ~traced =
    fresh ();
    Tracer.set_enabled traced;
    let res =
      Sim.simulate_sources ~sources ~config:d.DF.mapping.Noc_core.Mapping.config ~routes
        ~duration_slots:3200
    in
    let names = List.map (fun (e : Tracer.event) -> e.name) (Tracer.events ()) in
    Tracer.set_enabled false;
    Tracer.reset ();
    (Marshal.to_string res [], names)
  in
  let untraced, none = run ~traced:false in
  let traced, names = run ~traced:true in
  let count name = List.length (List.filter (String.equal name) names) in
  Alcotest.(check int) "untraced records no span" 0 (List.length none);
  Alcotest.(check int) "one sim:gt" 1 (count "sim:gt");
  Alcotest.(check int) "one sim:event-loop" 1 (count "sim:event-loop");
  Alcotest.(check bool) "traced simulation identical" true (String.equal untraced traced)

(* A traced simulation whose GT pass is split across two domains
   records the pass's connection count and jobs on [sim:gt], the
   submitter's wait for its helper in [pool:wait] inside it, and
   returns the same bits as an untraced run and as one domain. *)
let test_simulate_gt_pool_spans () =
  let module Sim = Noc_sim.Simulator in
  let module Pool = Noc_util.Domain_pool in
  let d =
    match DF.run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let u = List.hd d.DF.all_use_cases in
  let routes = Noc_core.Mapping.routes_of_use_case d.DF.mapping u.Noc_traffic.Use_case.id in
  let run ~jobs ~traced =
    fresh ();
    let saved = Pool.default_jobs () in
    Pool.set_default_jobs jobs;
    Tracer.set_enabled traced;
    let res =
      Fun.protect
        ~finally:(fun () ->
          Tracer.set_enabled false;
          Pool.set_default_jobs saved)
        (fun () ->
          Sim.simulate ~config:d.DF.mapping.Noc_core.Mapping.config ~routes
            ~duration_slots:3200)
    in
    let events = Tracer.events () in
    Tracer.reset ();
    (Marshal.to_string res [], events)
  in
  let one_domain, _ = run ~jobs:1 ~traced:false in
  let untraced, _ = run ~jobs:2 ~traced:false in
  let traced, events = run ~jobs:2 ~traced:true in
  let named name = List.filter (fun (e : Tracer.event) -> e.Tracer.name = name) events in
  let gt =
    match named "sim:gt" with
    | [ e ] -> e
    | es -> Alcotest.failf "%d sim:gt spans" (List.length es)
  in
  let int_arg key =
    match List.assoc_opt key gt.Tracer.args with
    | Some (Tracer.Int n) -> n
    | _ -> Alcotest.failf "sim:gt has no int %s arg" key
  in
  Alcotest.(check bool) "above the pool floor" true
    (int_arg "alone" * int_arg "duration_slots" >= Sim.gt_pool_floor);
  Alcotest.(check int) "sim:gt jobs" 2 (int_arg "jobs");
  let inside (e : Tracer.event) =
    e.Tracer.domain = gt.Tracer.domain
    && Int64.compare e.Tracer.start_ns gt.Tracer.start_ns >= 0
    && Int64.compare
         (Int64.add e.Tracer.start_ns e.Tracer.dur_ns)
         (Int64.add gt.Tracer.start_ns gt.Tracer.dur_ns)
       <= 0
  in
  (match named "pool:wait" with
  | [ w ] -> Alcotest.(check bool) "pool:wait inside sim:gt" true (inside w)
  | ws -> Alcotest.failf "%d pool:wait spans" (List.length ws));
  Alcotest.(check bool) "traced = untraced" true (String.equal untraced traced);
  Alcotest.(check bool) "two domains = one" true (String.equal one_domain untraced)

(* The per-run setup and the result assembly of a simulation have
   their own spans, around the GT pass and the event loop (or the
   reference core's slot loop), and tracing leaves the result's bits
   alone under either core. *)
let test_simulate_setup_span () =
  let module Sim = Noc_sim.Simulator in
  let d =
    match DF.run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let u = List.hd d.DF.all_use_cases in
  let routes = Noc_core.Mapping.routes_of_use_case d.DF.mapping u.Noc_traffic.Use_case.id in
  let run ~core ~traced =
    fresh ();
    Tracer.set_enabled traced;
    let res =
      Sim.simulate_with ~core ~sources:[] ~config:d.DF.mapping.Noc_core.Mapping.config ~routes
        ~duration_slots:1600
    in
    let events = Tracer.events () in
    Tracer.set_enabled false;
    Tracer.reset ();
    (Marshal.to_string res [], events)
  in
  List.iter
    (fun (label, core, body) ->
      let untraced, none = run ~core ~traced:false in
      let traced, events = run ~core ~traced:true in
      let named name = List.filter (fun (e : Tracer.event) -> e.name = name) events in
      let one name =
        match named name with
        | [ e ] -> e
        | es -> Alcotest.failf "%s: %d %s spans" label (List.length es) name
      in
      Alcotest.(check int) (label ^ ": untraced records no span") 0 (List.length none);
      let setup = one "sim:setup" and finish = one "sim:finish" in
      let first_body =
        List.fold_left
          (fun acc (e : Tracer.event) -> Int64.min acc e.Tracer.start_ns)
          Int64.max_int (named body)
      in
      Alcotest.(check bool) (label ^ ": setup ends before the run") true
        (Int64.compare (Int64.add setup.Tracer.start_ns setup.Tracer.dur_ns) first_body <= 0);
      Alcotest.(check bool) (label ^ ": finish starts after setup") true
        (Int64.compare setup.Tracer.start_ns finish.Tracer.start_ns < 0);
      Alcotest.(check bool) (label ^ ": traced simulation identical") true
        (String.equal untraced traced))
    [ ("event", `Event, "sim:gt"); ("reference", `Reference, "sim:slots") ]

(* A traced map and certify run the spec parser, the certificate's
   explain prefix and the auditor each in their own span, and return
   the untraced payload bytes. *)
let test_parse_certificate_certify_spans () =
  let module P = Noc_serve.Protocol in
  let text = Noc_core.Spec_parser.to_text (DF.spec_of_use_cases ~name:"d2" (SD.d2 ())) in
  let run ~traced op =
    fresh ();
    Noc_core.Mapping_cache.clear ();
    Tracer.set_enabled traced;
    let bytes =
      match Noc_serve.Service.prepare op with
      | Error (_, msg) -> Alcotest.fail msg
      | Ok job -> (
        match Noc_serve.Service.run job with
        | Ok o -> Noc_serve.Payload.render o
        | Error msg -> Alcotest.fail msg)
    in
    let names = List.map (fun (e : Tracer.event) -> e.Tracer.name) (Tracer.events ()) in
    Tracer.set_enabled false;
    Tracer.reset ();
    (bytes, names)
  in
  List.iter
    (fun (label, op, spans) ->
      let untraced, _ = run ~traced:false op in
      let traced, names = run ~traced:true op in
      List.iter
        (fun span ->
          Alcotest.(check bool) (label ^ " records " ^ span) true (List.mem span names))
        spans;
      Alcotest.(check string) (label ^ ": traced payload identical") untraced traced)
    [
      ( "map",
        P.Map { name = "d2"; spec = text; config = P.default_config },
        [ "spec_parser.parse"; "map_design"; "feasibility.certify" ] );
      ( "certify",
        P.Certify { name = "d2"; spec = text; config = P.default_config },
        [ "spec_parser.parse"; "feasibility.certify"; "certify" ] );
    ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter across domains" `Quick test_counter_across_domains;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "snapshot sorted, JSON valid" `Quick
            test_snapshot_sorted_and_json_valid;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "nesting and args" `Quick test_nesting_and_args;
          Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
          Alcotest.test_case "span feeds histogram" `Quick test_span_feeds_histogram;
          Alcotest.test_case "events well-formed" `Quick test_events_well_formed;
          Alcotest.test_case "chrome export schema" `Quick test_chrome_export_schema;
        ] );
      ( "passivity",
        Alcotest.test_case "D1 traced export identical" `Quick test_d1_traced_export_identical
        :: Alcotest.test_case "D2 map --json: one payload.write" `Quick
             test_d2_map_json_payload_span
        :: Alcotest.test_case "simulate: sim:gt span, same result" `Quick test_simulate_gt_span
        :: Alcotest.test_case "simulate on the pool: sim:gt and pool:wait, same result" `Quick
             test_simulate_gt_pool_spans
        :: Alcotest.test_case "simulate: sim:setup span, same result" `Quick
             test_simulate_setup_span
        :: Alcotest.test_case "parse, certificate and certify spans, same bytes" `Quick
             test_parse_certificate_certify_spans
        :: List.map QCheck_alcotest.to_alcotest [ prop_traced_export_byte_identical ] );
    ]
