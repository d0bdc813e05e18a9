(* Tests for Noc_analysis and Noc_core.Feasibility: diagnostic
   plumbing, the lint passes, and — most importantly — the soundness of
   certificate-based pruning: a size the certificate rejects must never
   map, and pruning must never change a design-flow answer. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Mapping = Noc_core.Mapping
module Feasibility = Noc_core.Feasibility
module DF = Noc_core.Design_flow
module Sp = Noc_core.Spec_parser
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module D = Noc_analysis.Diagnostic
module Analyzer = Noc_analysis.Analyzer

let singleton_groups ucs = List.mapi (fun i _ -> [ i ]) ucs

let has_error report ~pass ~line =
  List.exists
    (fun d -> d.D.pass = pass && d.D.line = Some line && d.D.severity = D.Error)
    report.Analyzer.diagnostics

(* --- the acceptance fixture: dangling smooth + latency floor ------------- *)

let infeasible_text =
  String.concat "\n"
    [
      "name demo";                  (* 1 *)
      "cores 4";                    (* 2 *)
      "";                           (* 3 *)
      "use-case playback";          (* 4 *)
      "  flow 0 -> 1 bw 100";       (* 5 *)
      "  flow 1 -> 2 bw 80 lat 5";  (* 6: under the 8 ns slot duration *)
      "";                           (* 7 *)
      "use-case standby";           (* 8 *)
      "  flow 3 -> 0 bw 10";        (* 9 *)
      "";                           (* 10 *)
      "smooth playback download";   (* 11: 'download' never declared *)
    ]

let test_lint_names_both_defect_lines () =
  let report = Analyzer.analyze_doc (Sp.parse_doc ~name:"demo" infeasible_text) in
  Alcotest.(check bool) "latency floor on line 6" true
    (has_error report ~pass:"infeasible-flow" ~line:6);
  Alcotest.(check bool) "dangling smooth on line 11" true
    (has_error report ~pass:"dangling-ref" ~line:11);
  Alcotest.(check int) "exit code" 2 (Analyzer.exit_code report)

let test_clean_spec_has_no_diagnostics () =
  let text =
    String.concat "\n"
      [
        "cores 4";
        "use-case a";
        "  flow 0 -> 1 bw 50";
        "  flow 2 -> 3 bw 20 be";
        "use-case b";
        "  flow 3 -> 0 bw 30 lat 900";
        "parallel a b";
      ]
  in
  let report = Analyzer.analyze_doc (Sp.parse_doc ~name:"clean" text) in
  Alcotest.(check int) "exit code" 0 (Analyzer.exit_code report);
  Alcotest.(check bool) "certificate issued" true (report.Analyzer.certificate <> None)

let test_spec_lint_pass_catalogue () =
  let text =
    String.concat "\n"
      [
        "cores 3";                (* 1 *)
        "use-case a";             (* 2 *)
        "  flow 0 -> 0 bw 10";    (* 3: self flow *)
        "  flow 0 -> 1 bw 0";     (* 4: zero bandwidth *)
        "  flow 0 -> 2 bw 5 lat -1";  (* 5: non-positive latency *)
        "use-case a";             (* 6: duplicate id *)
        "  flow 9 -> 1 bw 10";    (* 7: out of core range *)
        "smooth a a";             (* 8: self smooth *)
        "parallel a";             (* 9: arity *)
      ]
  in
  let report = Analyzer.analyze_doc (Sp.parse_doc ~name:"bad" text) in
  let flagged pass line = has_error report ~pass ~line in
  Alcotest.(check bool) "self-flow" true (flagged "self-flow" 3);
  Alcotest.(check bool) "zero-bandwidth" true (flagged "zero-bandwidth" 4);
  Alcotest.(check bool) "nonpositive-latency" true (flagged "nonpositive-latency" 5);
  Alcotest.(check bool) "duplicate-use-case" true (flagged "duplicate-use-case" 6);
  Alcotest.(check bool) "flow-range" true (flagged "flow-range" 7);
  Alcotest.(check bool) "self-smooth" true (flagged "self-smooth" 8);
  Alcotest.(check bool) "parallel-arity" true (flagged "parallel-arity" 9)

let test_render_json_is_valid_json () =
  let report = Analyzer.analyze_doc (Sp.parse_doc ~name:"demo" infeasible_text) in
  (match Noc_export.Json.(validate (to_string ~indent:2 (Analyzer.to_json report))) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("to_json does not render valid JSON: " ^ msg));
  let text = Analyzer.render_text report in
  Alcotest.(check bool) "text mentions the pass" true
    (let needle = "error[infeasible-flow]" in
     let n = String.length needle and h = String.length text in
     let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
     go 0)

let test_deep_lint_on_benchmark_is_clean () =
  let ucs = SD.d1 () in
  let spec = DF.spec_of_use_cases ~name:"d1" ucs in
  let report = Analyzer.analyze_spec ~deep:true spec in
  Alcotest.(check bool) "no errors, no warnings" true
    (List.for_all (fun d -> d.D.severity = D.Info) report.Analyzer.diagnostics)

(* --- certificates ---------------------------------------------------------- *)

let test_eff_slots_monotone_floor () =
  let config = Config.default in
  (* unconstrained latency: exactly the bandwidth floor *)
  Alcotest.(check (option int)) "bw floor" (Some (Config.slots_for_bandwidth config 300.0))
    (Feasibility.eff_slots ~config 300.0 infinity);
  (* a latency bound can only raise the requirement *)
  (match
     ( Feasibility.eff_slots ~config 300.0 infinity,
       Feasibility.eff_slots ~config 300.0 40.0 )
   with
  | Some free, Some tight -> Alcotest.(check bool) "tighter" true (tight >= free)
  | _ -> Alcotest.fail "both must be satisfiable");
  (* under one slot duration: impossible at any slot count *)
  Alcotest.(check (option int)) "latency floor" None (Feasibility.eff_slots ~config 10.0 5.0)

let test_certificate_rejects_undersized_grids () =
  (* 9 cores at 2 NIs/switch: a grid under 5 switches can never seat them *)
  let ucs = [ U.create ~id:0 ~name:"u0" ~cores:9 [ Flow.v ~src:0 ~dst:8 10.0 ] ] in
  let config = { Config.default with nis_per_switch = 2 } in
  let cert = Feasibility.certify ~config ~groups:[ [ 0 ] ] ucs in
  Alcotest.(check bool) "1x1 rejected" false (Feasibility.admits cert ~width:1 ~height:1);
  Alcotest.(check bool) "2x2 rejected" false (Feasibility.admits cert ~width:2 ~height:2);
  Alcotest.(check bool) "3x2 admitted" true (Feasibility.admits cert ~width:3 ~height:2);
  Alcotest.(check (option (pair int int))) "first admitted" (Some (3, 2))
    (Feasibility.first_admitted cert)

let test_impossible_design_prunes_every_size () =
  let ucs =
    [ U.create ~id:0 ~name:"u0" ~cores:3 [ Flow.v ~src:0 ~dst:1 ~latency_ns:5.0 80.0 ] ]
  in
  match Mapping.map_design ~groups:[ [ 0 ] ] ucs with
  | Ok _ -> Alcotest.fail "a 5 ns bound cannot map at 500 MHz"
  | Error f ->
    let sizes = Mesh.growth_sequence ~max_dim:Config.default.Config.max_mesh_dim in
    Alcotest.(check int) "every size reported" (List.length sizes)
      (List.length f.Mapping.attempts);
    Alcotest.(check bool) "all statically pruned" true
      (List.for_all
         (fun (_, _, reason) ->
           String.length reason >= 21 && String.sub reason 0 21 = "statically infeasible")
         f.Mapping.attempts)

(* --- pruning is invisible to the flow -------------------------------------- *)

let same_design (a : Mapping.t) (b : Mapping.t) =
  a.Mapping.placement = b.Mapping.placement
  && a.Mapping.mesh = b.Mapping.mesh
  && List.length a.Mapping.routes = List.length b.Mapping.routes
  && Mapping.total_weighted_hops a = Mapping.total_weighted_hops b

let test_map_design_prune_identical () =
  let ucs = SD.d1 () in
  let groups = singleton_groups ucs in
  let config = { Config.default with nis_per_switch = 2 } in
  match
    ( Mapping.map_design ~config ~prune:true ~groups ucs,
      Mapping.map_design ~config ~prune:false ~groups ucs )
  with
  | Ok a, Ok b -> Alcotest.(check bool) "identical design" true (same_design a b)
  | _ -> Alcotest.fail "d1 must map at 2 NIs/switch"

let test_explore_prune_identical () =
  let ucs = SD.d1 () in
  let groups = singleton_groups ucs in
  let axes =
    {
      Noc_power.Design_space.frequencies = [ 250.0; 500.0 ];
      slot_counts = [ 16; 32 ];
      topologies = [ Mesh.Mesh ];
    }
  in
  let run prune =
    Noc_power.Design_space.explore ~axes ~prune ~config:Config.default ~groups ucs
  in
  Alcotest.(check bool) "same sweep points" true (run true = run false)

let test_min_freq_prune_identical () =
  let ucs = SD.d1 () in
  let groups = singleton_groups ucs in
  let mesh = Mesh.create_kind ~kind:Mesh.Mesh ~width:2 ~height:2 in
  let run prune =
    Noc_power.Min_freq.for_use_cases_on_mesh ~prune ~config:Config.default ~mesh ~groups ucs
  in
  Alcotest.(check (option (float 1e-9))) "same minimum frequency" (run false) (run true)

(* --- properties ------------------------------------------------------------ *)

(* Certificate soundness: no size the certificate rejects ever maps
   with the reference engine.  Small NI capacities and slot tables make
   the bounds bite; the capacity cycles with the seed so forced
   co-location, cut and aggregate violations all occur. *)
let prop_certificate_soundness =
  QCheck.Test.make ~name:"rejected sizes never map (reference engine)" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = { Syn.bottleneck_params with cores = 8; flows_lo = 6; flows_hi = 12 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:2 in
      (* slow links and short slot tables so the cut, aggregate and
         latency bounds all bite, not just the NI count (at 50 MHz and
         4 slots an HD flow alone can exceed a whole link) *)
      let config =
        {
          Config.default with
          freq_mhz = [| 50.0; 100.0; 200.0 |].(seed mod 3);
          nis_per_switch = 1 + (seed mod 3);
          slots = (if seed mod 2 = 0 then 4 else 8);
          max_mesh_dim = 4;
        }
      in
      let groups = singleton_groups ucs in
      let cert = Feasibility.certify ~config ~groups ucs in
      List.for_all
        (fun (w, h) ->
          Feasibility.admits cert ~width:w ~height:h
          ||
          let mesh = Mesh.create_kind ~kind:Mesh.Mesh ~width:w ~height:h in
          match Noc_oracle.Reference_mapping.map_attempt ~config ~mesh ~groups ucs with
          | Error _ -> true
          | Ok _ -> false)
        (Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim))

(* The one assumption behind prefix pruning: the sizes a certificate
   rejects form a prefix of the growth order, so [map_design] can stop
   explaining at the first admitted size.  Mesh and torus, with slot
   tables, NI capacities and frequencies varied so every bound bites. *)
let prop_rejected_sizes_are_a_prefix =
  QCheck.Test.make ~name:"rejected sizes form a growth-order prefix" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = { Syn.bottleneck_params with cores = 8; flows_lo = 6; flows_hi = 12 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:2 in
      let config =
        {
          Config.default with
          freq_mhz = [| 50.0; 100.0; 200.0; 500.0 |].(seed mod 4);
          nis_per_switch = 1 + (seed / 4 mod 3);
          slots = [| 2; 4; 8; 16 |].(seed / 12 mod 4);
          topology = (if seed / 48 mod 2 = 0 then Mesh.Mesh else Mesh.Torus);
          max_mesh_dim = 6;
        }
      in
      let cert = Feasibility.certify ~config ~groups:(singleton_groups ucs) ucs in
      let admitted =
        List.map
          (fun (w, h) -> Feasibility.admits cert ~width:w ~height:h)
          (Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim)
      in
      (* once a size is admitted, every later one is too *)
      let rec up_set = function
        | true :: rest -> List.for_all Fun.id rest
        | false :: rest -> up_set rest
        | [] -> true
      in
      up_set admitted)

(* Lint cleanliness: a spec the flow maps and verifies never carries an
   error-severity diagnostic. *)
let prop_mappable_specs_lint_clean =
  QCheck.Test.make ~name:"mappable + verified specs lint clean" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let params = { Syn.spread_params with cores = 8; flows_lo = 4; flows_hi = 10 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:2 in
      let spec = DF.spec_of_use_cases ~name:"prop" ucs in
      match DF.run spec with
      | Error _ -> true (* vacuous: only mappable specs are claimed clean *)
      | Ok d ->
        (not (DF.verified d))
        || List.for_all
             (fun d -> d.D.severity <> D.Error)
             (Analyzer.analyze_spec spec).Analyzer.diagnostics)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_certificate_soundness; prop_rejected_sizes_are_a_prefix; prop_mappable_specs_lint_clean ]

let () =
  Alcotest.run "noc_analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "names both defect lines" `Quick test_lint_names_both_defect_lines;
          Alcotest.test_case "clean spec" `Quick test_clean_spec_has_no_diagnostics;
          Alcotest.test_case "pass catalogue" `Quick test_spec_lint_pass_catalogue;
          Alcotest.test_case "JSON renderer" `Quick test_render_json_is_valid_json;
          Alcotest.test_case "deep lint on d1" `Quick test_deep_lint_on_benchmark_is_clean;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "eff_slots" `Quick test_eff_slots_monotone_floor;
          Alcotest.test_case "NI bound" `Quick test_certificate_rejects_undersized_grids;
          Alcotest.test_case "impossible design" `Quick test_impossible_design_prunes_every_size;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "map_design identical" `Quick test_map_design_prune_identical;
          Alcotest.test_case "explore identical" `Quick test_explore_prune_identical;
          Alcotest.test_case "min_freq identical" `Quick test_min_freq_prune_identical;
        ] );
      ("properties", qcheck_cases);
    ]
