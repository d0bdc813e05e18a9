(* PR 9: the independent certificate checker.

   Certify re-derives every guarantee on a code path separate from the
   mapping engines, so these tests cross-validate the two derivations
   against each other: engine-produced designs certify clean (and
   byte-identically across engines), the event-core simulator's
   observed latencies never exceed the static bounds (with at least
   one flow meeting its bound exactly — the bound is tight, not just
   safe), the phase-analysis bound agrees bit-for-bit with the
   Tdma-side analytic bound, and a tampered codec dump is rejected
   with a pinpointed per-link finding. *)

module Config = Noc_arch.Noc_config
module Route = Noc_arch.Route
module DF = Noc_core.Design_flow
module Mapping = Noc_core.Mapping
module Codec = Noc_core.Mapping_codec
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Sim = Noc_sim.Simulator
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module C = Noc_analysis.Certify
module D = Noc_analysis.Diagnostic
module Json = Noc_export.Json

let small_params = { Syn.spread_params with Syn.cores = 8; flows_lo = 3; flows_hi = 8 }

let must_run spec = match DF.run spec with Ok d -> d | Error e -> failwith e

let encode_exn m =
  match Codec.encode m with Some b -> b | None -> failwith "mapping not encodable"

let qcheck t = QCheck_alcotest.to_alcotest t

(* --- the phase-analysis bound on its own -------------------------------- *)

let test_static_bound_edge_cases () =
  let config = Config.default in
  let slot_ns = Config.slot_duration_ns config in
  Alcotest.(check (float 0.0)) "same-switch costs one slot" slot_ns
    (C.static_bound_ns ~config ~slot_starts:[] ~hops:0);
  Alcotest.(check (float 0.0)) "same-switch ignores starts" slot_ns
    (C.static_bound_ns ~config ~slot_starts:[ 3; 7 ] ~hops:0);
  Alcotest.(check bool) "no reservation, links: unbounded" true
    (C.static_bound_ns ~config ~slot_starts:[] ~hops:2 = infinity);
  (* One start in a 32-slot revolution: the worst arrival just missed
     it and waits 31 slots, then 1 launch + hops forwarding slots. *)
  Alcotest.(check (float 0.0)) "single start"
    (float_of_int (31 + 1 + 2) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:[ 5 ] ~hops:2);
  (* Every slot reserved: no waiting at all. *)
  Alcotest.(check (float 0.0)) "full table"
    (float_of_int (0 + 1 + 3) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:(List.init config.Config.slots Fun.id) ~hops:3);
  (* Two starts splitting the revolution 12/20: worst wait is 19. *)
  Alcotest.(check (float 0.0)) "uneven pair"
    (float_of_int (19 + 1 + 1) *. slot_ns)
    (C.static_bound_ns ~config ~slot_starts:[ 0; 12 ] ~hops:1)

(* --- benchmarks certify clean ------------------------------------------- *)

let test_benchmarks_certify_clean () =
  List.iter
    (fun (name, ucs) ->
      let d = must_run (DF.spec_of_use_cases ~name ucs) in
      let cert = C.certify ~name d.DF.mapping d.DF.all_use_cases in
      Alcotest.(check bool) (name ^ " certifies clean") true (C.clean cert);
      Alcotest.(check int) (name ^ " exit code") 0 (C.exit_code cert);
      Alcotest.(check bool) (name ^ " signature verifies") true (C.signature_ok cert);
      Alcotest.(check bool) (name ^ " carries a digest") true (cert.C.digest <> None);
      Alcotest.(check bool) (name ^ " ran checks") true (cert.C.checks > 0);
      Alcotest.(check bool) (name ^ " has flow bounds") true (cert.C.bounds <> []))
    (SD.all_designs ())

let test_certificate_json_validates () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  (match Json.validate (Json.to_string ~indent:2 (C.to_json cert)) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "certificate JSON invalid: %s" msg);
  (* The diagnostics view: one info summary, nothing else when clean. *)
  match C.to_diagnostics cert with
  | [ d0 ] ->
    Alcotest.(check string) "summary pass" "certify" d0.D.pass;
    Alcotest.(check bool) "summary is info" true (d0.D.severity = D.Info)
  | ds -> Alcotest.failf "expected exactly the summary diagnostic, got %d" (List.length ds)

let test_signature_detects_tampering () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  Alcotest.(check bool) "intact" true (C.signature_ok cert);
  Alcotest.(check bool) "renamed design" false
    (C.signature_ok { cert with C.design = cert.C.design ^ "x" });
  Alcotest.(check bool) "check count altered" false
    (C.signature_ok { cert with C.checks = cert.C.checks + 1 });
  match cert.C.bounds with
  | [] -> Alcotest.fail "d1 must carry bounds"
  | b :: rest ->
    Alcotest.(check bool) "bound altered" false
      (C.signature_ok { cert with C.bounds = { b with C.bound_ns = b.C.bound_ns +. 1.0 } :: rest })

(* --- a tampered dump is rejected with a per-link finding ----------------- *)

(* Flip one recorded slot owner on the first state line that carries a
   reservation: "state uc nNI b.. nRes l s o ..." — the textual twin
   of the CI job's awk corruption. *)
let bump_last_owner line =
  let toks = Array.of_list (String.split_on_char ' ' line) in
  if Array.length toks < 4 || toks.(0) <> "state" then None
  else
    match int_of_string_opt toks.(2) with
    | None -> None
    | Some n_ni -> (
      let nres_idx = 3 + n_ni in
      if nres_idx >= Array.length toks then None
      else
        match int_of_string_opt toks.(nres_idx) with
        | Some nres when nres > 0 -> (
          let last = Array.length toks - 1 in
          match int_of_string_opt toks.(last) with
          | Some owner ->
            toks.(last) <- string_of_int (owner + 1);
            Some (String.concat " " (Array.to_list toks))
          | None -> None)
        | _ -> None)

let flip_first_owner text =
  let flipped = ref false in
  let lines =
    List.map
      (fun line ->
        if !flipped then line
        else
          match bump_last_owner line with
          | Some line' ->
            flipped := true;
            line'
          | None -> line)
      (String.split_on_char '\n' text)
  in
  if not !flipped then failwith "no state line with reservations to corrupt";
  String.concat "\n" lines

let test_corrupted_dump_rejected () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  let clean_cert = C.certify ~name:"d1" d.DF.mapping d.DF.all_use_cases in
  Alcotest.(check bool) "uncorrupted baseline is clean" true (C.clean clean_cert);
  let bad = flip_first_owner (encode_exn d.DF.mapping) in
  match Codec.decode bad with
  | Error msg -> Alcotest.failf "corrupted dump must still decode, got: %s" msg
  | Ok m ->
    let cert = C.certify ~name:"tampered" m d.DF.all_use_cases in
    Alcotest.(check bool) "rejected" false (C.clean cert);
    Alcotest.(check int) "exit code 2" 2 (C.exit_code cert);
    Alcotest.(check bool) "signature still verifies" true (C.signature_ok cert);
    (* The finding pinpoints the corrupted link. *)
    Alcotest.(check bool) "a per-link slot-owner finding" true
      (List.exists
         (fun f -> f.C.check = "slot-owner" && f.C.link >= 0 && f.C.use_case >= 0)
         cert.C.findings);
    (* And it surfaces through the lint pipeline as an error. *)
    Alcotest.(check bool) "diagnostics carry the error" true
      (List.exists
         (fun (dg : D.t) -> dg.D.pass = "certify-slot-owner" && dg.D.severity = D.Error)
         (C.to_diagnostics cert))

(* --- simulator cross-validation ------------------------------------------ *)

(* Counted across the whole qcheck run and asserted afterwards: the
   bound must be achieved exactly by some flow somewhere, or it would
   merely be safe, not tight. *)
let equality_hits = ref 0

let prop_bounds_dominate_sim =
  QCheck.Test.make ~name:"certify bounds dominate event-core observed latencies" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, n_ucs) ->
      let spec =
        DF.spec_of_use_cases
          ~name:(Printf.sprintf "syn-%d" seed)
          (Syn.generate ~seed ~params:small_params ~use_cases:n_ucs)
      in
      let d = must_run spec in
      let cert = C.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases in
      if not (C.clean cert) then
        QCheck.Test.fail_reportf "seed %d: engine design did not certify (%d findings)" seed
          (List.length cert.C.findings);
      let config = d.DF.mapping.Mapping.config in
      let bound_of uc flow_id =
        match
          List.find_opt
            (fun (b : C.flow_bound) -> b.C.use_case = uc && b.C.flow_id = flow_id)
            cert.C.bounds
        with
        | Some b -> b.C.bound_ns
        | None -> QCheck.Test.fail_reportf "seed %d: no bound for uc %d flow %d" seed uc flow_id
      in
      List.iter
        (fun (u : U.t) ->
          let uc = u.U.id in
          let routes =
            List.filter (fun r -> r.Route.use_case = uc) d.DF.mapping.Mapping.routes
          in
          if routes <> [] then begin
            let res =
              Sim.simulate ~config ~routes ~duration_slots:(8 * config.Config.slots)
            in
            if res.Sim.collisions <> 0 then
              QCheck.Test.fail_reportf "seed %d uc %d: %d slot collisions" seed uc
                res.Sim.collisions;
            List.iter
              (fun (c : Sim.conn_stats) ->
                if c.Sim.service = Route.Gt && c.Sim.max_latency_ns > 0.0 then begin
                  let b = bound_of uc c.Sim.flow_id in
                  if c.Sim.max_latency_ns > b +. 1e-9 then
                    QCheck.Test.fail_reportf
                      "seed %d uc %d flow %d: observed %.17g ns exceeds static bound %.17g ns"
                      seed uc c.Sim.flow_id c.Sim.max_latency_ns b;
                  if Float.abs (c.Sim.max_latency_ns -. b) <= 1e-9 then incr equality_hits
                end)
              res.Sim.conns
          end)
        d.DF.all_use_cases;
      true)

let test_some_flow_meets_its_bound_exactly () =
  (* Runs after the qcheck property above (alcotest preserves order). *)
  Alcotest.(check bool)
    (Printf.sprintf "equality hits (%d) >= 1" !equality_hits)
    true (!equality_hits >= 1)

(* --- independent derivations agree --------------------------------------- *)

let prop_bound_agrees_with_tdma_side =
  QCheck.Test.make ~name:"static_bound_ns == Route.worst_case_latency_ns (GT)" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let spec =
        DF.spec_of_use_cases ~name:"agree"
          (Syn.generate ~seed ~params:small_params ~use_cases:2)
      in
      let d = must_run spec in
      let config = d.DF.mapping.Mapping.config in
      List.iter
        (fun (r : Route.t) ->
          if r.Route.service = Route.Gt then begin
            let mine =
              C.static_bound_ns ~config ~slot_starts:r.Route.slot_starts
                ~hops:(List.length r.Route.links)
            in
            let theirs = Route.worst_case_latency_ns ~config r in
            if compare mine theirs <> 0 then
              QCheck.Test.fail_reportf
                "seed %d flow %d: phase analysis %.17g ns != analytic %.17g ns" seed
                r.Route.flow_id mine theirs
          end)
        d.DF.mapping.Mapping.routes;
      true)

let prop_engines_certify_identically =
  QCheck.Test.make ~name:"reference-engine designs certify identically" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let spec =
        DF.spec_of_use_cases ~name:"engines"
          (Syn.generate ~seed ~params:small_params ~use_cases:2)
      in
      let all, _, groups = DF.expand spec in
      let mapped = function
        | Ok m -> m
        | Error _ -> QCheck.Test.fail_reportf "seed %d: engine failed to map" seed
      in
      let indexed = C.certify ~name:"engines" (mapped (Mapping.map_design ~groups all)) all in
      let reference =
        C.certify ~name:"engines"
          (mapped (Noc_oracle.Reference_mapping.map_design ~groups all))
          all
      in
      if not (C.clean indexed) then QCheck.Test.fail_reportf "seed %d: indexed not clean" seed;
      String.equal
        (Json.to_string (C.to_json indexed))
        (Json.to_string (C.to_json reference)))

(* --- shape refutations ---------------------------------------------------- *)

let test_wrong_use_case_list_refuted () =
  let d = must_run (DF.spec_of_use_cases ~name:"d1" (SD.d1 ())) in
  (* Certifying against a truncated traffic description must fail the
     structural shape check, not crash. *)
  match d.DF.all_use_cases with
  | [] | [ _ ] -> Alcotest.fail "d1 has several use-cases"
  | _ :: rest_tail ->
    let truncated = List.filteri (fun i _ -> i < List.length rest_tail) d.DF.all_use_cases in
    let cert = C.certify ~name:"truncated" d.DF.mapping truncated in
    Alcotest.(check bool) "refuted" false (C.clean cert);
    Alcotest.(check bool) "shape finding" true
      (List.exists (fun f -> f.C.check = "shape") cert.C.findings);
    Alcotest.(check bool) "signature still verifies" true (C.signature_ok cert)

let () =
  Alcotest.run "noc_certify"
    [
      ( "bound",
        [
          Alcotest.test_case "phase-analysis edge cases" `Quick test_static_bound_edge_cases;
          qcheck prop_bound_agrees_with_tdma_side;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "benchmarks certify clean" `Slow test_benchmarks_certify_clean;
          Alcotest.test_case "JSON validates, diagnostics clean" `Quick
            test_certificate_json_validates;
          Alcotest.test_case "signature detects tampering" `Quick
            test_signature_detects_tampering;
          Alcotest.test_case "corrupted dump rejected per-link" `Quick
            test_corrupted_dump_rejected;
          Alcotest.test_case "wrong use-case list refuted" `Quick
            test_wrong_use_case_list_refuted;
        ] );
      ( "cross-validation",
        [
          qcheck prop_bounds_dominate_sim;
          Alcotest.test_case "some flow meets its bound exactly" `Quick
            test_some_flow_meets_its_bound_exactly;
          qcheck prop_engines_certify_identically;
        ] );
    ]
