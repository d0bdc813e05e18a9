(* Tests for Noc_core: the paper's methodology — compound modes,
   switching graph grouping, unified mapping, the WC baseline,
   verification, refinement and the full design flow. *)

module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Slot_table = Noc_arch.Slot_table
module Compound = Noc_core.Compound
module Switching = Noc_core.Switching
module Resources = Noc_core.Resources
module Path_select = Noc_core.Path_select
module Mapping = Noc_core.Mapping
module WC = Noc_core.Worst_case
module Verify = Noc_core.Verify
module Refine = Noc_core.Refine
module DF = Noc_core.Design_flow

let check_float = Alcotest.(check (float 1e-9))

let uc ~id ~cores flows = U.create ~id ~name:(Printf.sprintf "u%d" id) ~cores flows

(* --- compound ------------------------------------------------------------ *)

let test_compound_merge_rule () =
  (* bandwidths sum per pair; latency is the minimum (paper Sec 4) *)
  let u1 = uc ~id:0 ~cores:3 [ Flow.v ~src:0 ~dst:1 ~latency_ns:500.0 10.0 ] in
  let u2 =
    uc ~id:1 ~cores:3 [ Flow.v ~src:0 ~dst:1 ~latency_ns:200.0 30.0; Flow.v ~src:1 ~dst:2 5.0 ]
  in
  let c = Compound.merge ~id:2 ~name:"c" [ u1; u2 ] in
  Alcotest.(check int) "pair count" 2 (U.flow_count c);
  (match U.find_flow c ~src:0 ~dst:1 with
  | Some f ->
    check_float "sum" 40.0 f.Flow.bandwidth;
    check_float "min latency" 200.0 f.Flow.latency_ns
  | None -> Alcotest.fail "merged flow missing");
  match U.find_flow c ~src:1 ~dst:2 with
  | Some f -> check_float "single member kept" 5.0 f.Flow.bandwidth
  | None -> Alcotest.fail "u2-only flow missing"

let test_compound_merge_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Compound.merge: no members") (fun () ->
      ignore (Compound.merge ~id:0 ~name:"c" []))

let test_compound_generate_ids_and_names () =
  let base = [ uc ~id:0 ~cores:2 []; uc ~id:1 ~cores:2 []; uc ~id:2 ~cores:2 [] ] in
  let all, compounds = Compound.generate base ~parallel:[ [ 0; 2 ]; [ 1; 2 ] ] in
  Alcotest.(check int) "five use-cases" 5 (List.length all);
  Alcotest.(check (list int)) "compound ids" [ 3; 4 ]
    (List.map (fun c -> c.Compound.use_case.U.id) compounds);
  Alcotest.(check (list string)) "figure-4 style names" [ "U_02"; "U_12" ]
    (List.map (fun c -> c.Compound.use_case.U.name) compounds);
  Alcotest.(check (list (list int))) "members" [ [ 0; 2 ]; [ 1; 2 ] ]
    (List.map (fun c -> c.Compound.members) compounds)

let test_compound_generate_rejects_singleton () =
  let base = [ uc ~id:0 ~cores:2 [] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Compound.generate base ~parallel:[ [ 0 ] ]);
       false
     with Invalid_argument _ -> true)

let test_compound_generate_rejects_unknown () =
  let base = [ uc ~id:0 ~cores:2 []; uc ~id:1 ~cores:2 [] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Compound.generate base ~parallel:[ [ 0; 9 ] ]);
       false
     with Invalid_argument _ -> true)

let test_compound_generate_rejects_duplicates () =
  let base = [ uc ~id:0 ~cores:2 []; uc ~id:1 ~cores:2 [] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Compound.generate base ~parallel:[ [ 0; 0 ] ]);
       false
     with Invalid_argument _ -> true)

(* --- switching graph / Algorithm 1 ---------------------------------------- *)

(* Figure 4 of the paper: 8 base use-cases U1..U8 (ids 0..7), compounds
   U_123 (id 8) and U_45 (id 9), smooth switching between U6 and U7
   (ids 5, 6).  Expected groups: {0,1,2,8}, {3,4,9}, {5,6}, {7}. *)
let fig4_switching () =
  let base = List.init 8 (fun i -> uc ~id:i ~cores:2 []) in
  let _, compounds = Compound.generate base ~parallel:[ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let sg = Switching.create ~use_cases:10 ~smooth:[ (5, 6) ] in
  List.iter (Switching.add_compound sg) compounds;
  sg

let test_fig4_grouping () =
  let sg = fig4_switching () in
  Alcotest.(check (list (list int))) "four groups of figure 4"
    [ [ 0; 1; 2; 8 ]; [ 3; 4; 9 ]; [ 5; 6 ]; [ 7 ] ]
    (Switching.groups sg)

let test_fig4_group_of () =
  let sg = fig4_switching () in
  let ids = Switching.group_of sg in
  Alcotest.(check bool) "0 and 8 together" true (ids.(0) = ids.(8));
  Alcotest.(check bool) "7 alone" true (Array.for_all (fun g -> g <> ids.(7)) (Array.sub ids 0 7))

let test_switching_requires_smooth () =
  let sg = Switching.create ~use_cases:3 ~smooth:[ (0, 1) ] in
  Alcotest.(check bool) "direct edge" true (Switching.requires_smooth sg 0 1);
  Alcotest.(check bool) "symmetric" true (Switching.requires_smooth sg 1 0);
  Alcotest.(check bool) "absent" false (Switching.requires_smooth sg 0 2)

let test_switching_rejects_self_edge () =
  Alcotest.check_raises "self"
    (Invalid_argument "Switching: a use-case cannot smooth-switch with itself") (fun () ->
      ignore (Switching.create ~use_cases:2 ~smooth:[ (1, 1) ]))

let test_switching_reconfigurable_count () =
  (* 3 use-cases, 0-1 grouped: reconfigurable pairs are (0,2) and (1,2). *)
  let sg = Switching.create ~use_cases:3 ~smooth:[ (0, 1) ] in
  Alcotest.(check int) "pairs across groups" 2 (Switching.reconfigurable_switchings sg)

let test_switching_transitive_grouping () =
  (* Algorithm 1 groups by reachability, not direct edges. *)
  let sg = Switching.create ~use_cases:4 ~smooth:[ (0, 1); (1, 2) ] in
  Alcotest.(check (list (list int))) "chain collapses" [ [ 0; 1; 2 ]; [ 3 ] ]
    (Switching.groups sg)

(* --- worst case ------------------------------------------------------------ *)

let test_wc_synthetic_max_min () =
  let u1 = uc ~id:0 ~cores:3 [ Flow.v ~src:0 ~dst:1 ~latency_ns:400.0 10.0 ] in
  let u2 =
    uc ~id:1 ~cores:3 [ Flow.v ~src:0 ~dst:1 ~latency_ns:900.0 80.0; Flow.v ~src:2 ~dst:0 7.0 ]
  in
  let wc = WC.synthetic [ u1; u2 ] in
  Alcotest.(check int) "union of pairs" 2 (U.flow_count wc);
  (match U.find_flow wc ~src:0 ~dst:1 with
  | Some f ->
    check_float "max bandwidth" 80.0 f.Flow.bandwidth;
    check_float "min latency" 400.0 f.Flow.latency_ns
  | None -> Alcotest.fail "pair missing");
  Alcotest.(check bool) "u2-only pair present" true (U.find_flow wc ~src:2 ~dst:0 <> None)

let test_wc_overspecification_grows () =
  let mk id seed =
    uc ~id ~cores:6
      [ Flow.v ~src:(seed mod 6) ~dst:((seed + 1) mod 6) 50.0;
        Flow.v ~src:((seed + 2) mod 6) ~dst:((seed + 3) mod 6) 50.0 ]
  in
  let two = WC.overspecification [ mk 0 0; mk 1 2 ] in
  let four = WC.overspecification [ mk 0 0; mk 1 2; mk 2 4; mk 3 1 ] in
  Alcotest.(check bool) "at least 1" true (two >= 1.0);
  Alcotest.(check bool) "more use-cases, more overspec" true (four >= two)

let prop_wc_dominates_members =
  QCheck.Test.make ~name:"WC flow dominates every member flow" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let params = { Noc_benchkit.Synthetic.spread_params with cores = 8; flows_lo = 5; flows_hi = 15 } in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:3 in
      let wc = WC.synthetic ucs in
      List.for_all
        (fun u ->
          List.for_all
            (fun f ->
              match U.find_flow wc ~src:f.Flow.src ~dst:f.Flow.dst with
              | Some g ->
                g.Flow.bandwidth +. 1e-9 >= f.Flow.bandwidth
                && g.Flow.latency_ns <= f.Flow.latency_ns +. 1e-9
              | None -> false)
            u.U.flows)
        ucs)

(* --- resources / path selection -------------------------------------------- *)

let two_switch_state () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  (mesh, Resources.create ~config:Config.default ~mesh ~use_case:0)

let test_resources_fresh_state () =
  let _, st = two_switch_state () in
  check_float "full residual" 2000.0 (Resources.residual_bandwidth st 0);
  Alcotest.(check int) "all slots free" 32 (Resources.free_slots st 0);
  check_float "no utilization" 0.0 (Resources.mean_utilization st)

let test_route_reserves_resources () =
  let _, st = two_switch_state () in
  let req =
    { Path_select.conn_id = 1; flow = Flow.v ~src:0 ~dst:1 200.0; src_switch = 0; dst_switch = 1 }
  in
  match Path_select.route ~state:st req with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (* 200 MB/s at 62.5 MB/s per slot = 4 slots *)
    Alcotest.(check int) "slots reserved" 4 (List.length r.Route.slot_starts);
    Alcotest.(check int) "one hop" 1 (Route.hops r);
    Alcotest.(check int) "table updated" 28 (Resources.free_slots st (List.hd r.Route.links));
    check_float "bandwidth recorded" 200.0 r.Route.bandwidth

let test_route_same_switch_needs_no_links () =
  let _, st = two_switch_state () in
  let req =
    { Path_select.conn_id = 2; flow = Flow.v ~src:0 ~dst:1 500.0; src_switch = 0; dst_switch = 0 }
  in
  match Path_select.route ~state:st req with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (list int)) "no links" [] r.Route.links;
    Alcotest.(check int) "tables untouched" 32 (Resources.free_slots st 0)

let test_route_tight_latency_takes_more_slots () =
  let _, st = two_switch_state () in
  let loose =
    { Path_select.conn_id = 3; flow = Flow.v ~src:0 ~dst:1 10.0; src_switch = 0; dst_switch = 1 }
  in
  let tight =
    {
      Path_select.conn_id = 4;
      flow = Flow.v ~src:0 ~dst:1 ~latency_ns:80.0 10.0;
      src_switch = 0;
      dst_switch = 1;
    }
  in
  match (Path_select.route ~state:st loose, Path_select.route ~state:st tight) with
  | Ok a, Ok b ->
    Alcotest.(check int) "loose: 1 slot" 1 (List.length a.Route.slot_starts);
    (* 80 ns at 8 ns/slot needs the max gap below 9 slots => >= 4 starts *)
    Alcotest.(check bool) "tight took more slots" true
      (List.length b.Route.slot_starts > 1);
    Alcotest.(check bool) "bound met" true
      (Route.worst_case_latency_ns ~config:Config.default b <= 80.0)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_route_rejects_over_capacity () =
  let _, st = two_switch_state () in
  let req =
    { Path_select.conn_id = 5; flow = Flow.v ~src:0 ~dst:1 2500.0; src_switch = 0; dst_switch = 1 }
  in
  Alcotest.(check bool) "over capacity" true (Result.is_error (Path_select.route ~state:st req))

let test_route_fails_when_saturated () =
  let _, st = two_switch_state () in
  let fill =
    { Path_select.conn_id = 6; flow = Flow.v ~src:0 ~dst:1 2000.0; src_switch = 0; dst_switch = 1 }
  in
  (match Path_select.route ~state:st fill with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("fill should route: " ^ e));
  let extra =
    { Path_select.conn_id = 7; flow = Flow.v ~src:2 ~dst:3 10.0; src_switch = 0; dst_switch = 1 }
  in
  Alcotest.(check bool) "saturated" true (Result.is_error (Path_select.route ~state:st extra))

let test_route_shared_uses_same_slots () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  let st0 = Resources.create ~config:Config.default ~mesh ~use_case:0 in
  let st1 = Resources.create ~config:Config.default ~mesh ~use_case:1 in
  let members =
    [
      ( st0,
        { Path_select.conn_id = 10; flow = Flow.v ~src:0 ~dst:1 100.0; src_switch = 0; dst_switch = 1 } );
      ( st1,
        { Path_select.conn_id = 11; flow = Flow.v ~src:0 ~dst:1 40.0; src_switch = 0; dst_switch = 1 } );
    ]
  in
  match Path_select.route_shared ~members () with
  | Error e -> Alcotest.fail e
  | Ok routes ->
    (match routes with
    | [ a; b ] ->
      Alcotest.(check (list int)) "same path" a.Route.links b.Route.links;
      Alcotest.(check (list int)) "same slots" a.Route.slot_starts b.Route.slot_starts;
      (* slots sized for the group maximum (100 MB/s = 2 slots) *)
      Alcotest.(check int) "group max slots" 2 (List.length a.Route.slot_starts)
    | _ -> Alcotest.fail "two routes expected");
    Alcotest.(check int) "st0 charged" 30 (Resources.free_slots st0 0);
    Alcotest.(check int) "st1 charged" 30 (Resources.free_slots st1 0)

let test_route_shared_passive_mirrors () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  let st0 = Resources.create ~config:Config.default ~mesh ~use_case:0 in
  let passive = Resources.create ~config:Config.default ~mesh ~use_case:1 in
  let members =
    [
      ( st0,
        { Path_select.conn_id = 12; flow = Flow.v ~src:0 ~dst:1 100.0; src_switch = 0; dst_switch = 1 } );
    ]
  in
  match Path_select.route_shared ~passive:[ passive ] ~members () with
  | Error e -> Alcotest.fail e
  | Ok _ ->
    Alcotest.(check int) "passive mirrored the reservation" (Resources.free_slots st0 0)
      (Resources.free_slots passive 0)

let test_ni_constraint_enforced () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  let config = { Config.default with constrain_ni_links = true } in
  let st = Resources.create ~config ~mesh ~use_case:0 in
  Alcotest.(check bool) "within budget" true (Resources.ni_reserve st ~core:0 ~bw:1500.0 = Ok ());
  Alcotest.(check bool) "over budget" true
    (Result.is_error (Resources.ni_reserve st ~core:0 ~bw:1000.0));
  check_float "remaining" 500.0 (Resources.ni_available st ~core:0)

(* --- mapping (Algorithm 2) -------------------------------------------------- *)

let example1 = Noc_benchkit.Soc_designs.example1_use_cases

let test_example1_maps_on_single_switch () =
  (* Paper Example 1: 4 cores, both use-cases; everything fits one switch. *)
  match Mapping.map_design ~groups:[ [ 0 ]; [ 1 ] ] example1 with
  | Error f -> Alcotest.fail (Format.asprintf "%a" Mapping.pp_failure f)
  | Ok m ->
    Alcotest.(check int) "single switch" 1 (Mapping.switch_count m);
    Alcotest.(check int) "all six connections" 6 (List.length m.Mapping.routes);
    Array.iter (fun s -> Alcotest.(check int) "placed on sw0" 0 s) m.Mapping.placement

let test_example1_forced_spread () =
  (* With one NI per switch the cores must spread and the largest flow
     (C3->C4, 100 MB/s) gets an inter-switch path in both use-cases. *)
  let config = { Config.default with nis_per_switch = 1 } in
  match Mapping.map_design ~config ~groups:[ [ 0 ]; [ 1 ] ] example1 with
  | Error f -> Alcotest.fail (Format.asprintf "%a" Mapping.pp_failure f)
  | Ok m ->
    Alcotest.(check bool) "at least 4 switches" true (Mapping.switch_count m >= 4);
    let placed = Array.to_list m.Mapping.placement in
    Alcotest.(check int) "distinct switches" 4 (List.length (List.sort_uniq compare placed));
    List.iter
      (fun r ->
        if r.Route.src_switch <> r.Route.dst_switch then
          Alcotest.(check bool) "has slots" true (r.Route.slot_starts <> []))
      m.Mapping.routes;
    let report = Verify.verify m example1 in
    Alcotest.(check bool) (Format.asprintf "%a" Verify.pp_report report) true (Verify.ok report)

let test_mapping_routes_count_matches_flows () =
  let ucs = example1 in
  match Mapping.map_design ~groups:[ [ 0 ]; [ 1 ] ] ucs with
  | Error _ -> Alcotest.fail "mapping failed"
  | Ok m ->
    List.iter
      (fun u ->
        Alcotest.(check int)
          (Printf.sprintf "uc %d route count" u.U.id)
          (U.flow_count u)
          (List.length (Mapping.routes_of_use_case m u.U.id)))
      ucs

let test_mapping_respects_ni_capacity () =
  let config = { Config.default with nis_per_switch = 2 } in
  let ucs = [ Noc_benchkit.Soc_designs.viper_fragment_1 ] in
  match Mapping.map_design ~config ~groups:[ [ 0 ] ] ucs with
  | Error _ -> Alcotest.fail "mapping failed"
  | Ok m ->
    let counts = Array.make (Mapping.switch_count m) 0 in
    Array.iter (fun s -> counts.(s) <- counts.(s) + 1) m.Mapping.placement;
    Array.iter (fun c -> Alcotest.(check bool) "<= 2 NIs" true (c <= 2)) counts

let test_mapping_positional_id_enforced () =
  let bad = [ uc ~id:1 ~cores:2 [] ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Mapping.map_design ~groups:[ [ 0 ] ] bad);
       false
     with Invalid_argument _ -> true)

let test_mapping_group_partition_enforced () =
  let ucs = [ uc ~id:0 ~cores:2 []; uc ~id:1 ~cores:2 [] ] in
  let expect_invalid groups =
    Alcotest.(check bool) "raises" true
      (try
         ignore (Mapping.map_design ~groups ucs);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid [ [ 0 ] ];
  (* 1 missing *)
  expect_invalid [ [ 0; 1 ]; [ 1 ] ]
(* 1 twice *)

let test_mapping_failure_reports_attempts () =
  (* One flow beyond link capacity on distinct switches can never map
     once cores cannot share a switch. *)
  let config = { Config.default with nis_per_switch = 1; max_mesh_dim = 3 } in
  let ucs = [ uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 5000.0 ] ] in
  match Mapping.map_design ~config ~groups:[ [ 0 ] ] ucs with
  | Ok _ -> Alcotest.fail "should be infeasible"
  | Error f ->
    Alcotest.(check bool) "attempts recorded" true (List.length f.Mapping.attempts >= 3)

(* A bandwidth beyond any countable slot demand must fail as
   infeasible at every size, pruned or not, rather than raise. *)
let test_mapping_huge_bandwidth_infeasible () =
  let config = { Config.default with nis_per_switch = 1; max_mesh_dim = 3 } in
  let ucs = [ uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 1e300 ] ] in
  List.iter
    (fun prune ->
      match Mapping.map_design ~config ~prune ~groups:[ [ 0 ] ] ucs with
      | Ok _ -> Alcotest.fail "should be infeasible"
      | Error f -> Alcotest.(check bool) "attempts recorded" true (f.Mapping.attempts <> []))
    [ true; false ]

(* The growth search tries one size at a time even when the pool has
   several domains: every attempt but the successful last one failed. *)
let test_growth_attempts_sequential () =
  let module Metrics = Noc_obs.Metrics in
  let module MC = Noc_core.Mapping_cache in
  let module Pool = Noc_util.Domain_pool in
  let attempts = Metrics.counter "map.attempts" in
  let failures = Metrics.counter "map.attempt_failures" in
  let jobs = Pool.default_jobs () and cache = MC.enabled () in
  Pool.set_default_jobs 2;
  MC.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default_jobs jobs;
      MC.set_enabled cache)
    (fun () ->
      let a0 = Metrics.counter_value attempts and f0 = Metrics.counter_value failures in
      (match DF.run (DF.spec_of_use_cases ~name:"d2" (Noc_benchkit.Soc_designs.d2 ())) with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "attempts = failures + 1"
        (Metrics.counter_value failures - f0 + 1)
        (Metrics.counter_value attempts - a0))

let test_map_with_placement_fixed () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  let ucs = [ uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 100.0 ] ] in
  let placement = [| 0; 1 |] in
  match Mapping.map_with_placement ~config:Config.default ~mesh ~groups:[ [ 0 ] ] ~placement ucs with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check (array int)) "placement kept" placement m.Mapping.placement;
    Alcotest.(check int) "one route" 1 (List.length m.Mapping.routes)

let test_map_with_placement_rejects_unplaced () =
  let mesh = Mesh.create ~width:2 ~height:1 in
  let ucs = [ uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 100.0 ] ] in
  Alcotest.(check bool) "unplaced core" true
    (Result.is_error
       (Mapping.map_with_placement ~config:Config.default ~mesh ~groups:[ [ 0 ] ]
          ~placement:[| 0; -1 |] ucs))

let test_mapping_flowless_cores_get_nis () =
  let ucs = [ uc ~id:0 ~cores:5 [ Flow.v ~src:0 ~dst:1 10.0 ] ] in
  match Mapping.map_design ~groups:[ [ 0 ] ] ucs with
  | Error _ -> Alcotest.fail "mapping failed"
  | Ok m ->
    Array.iteri
      (fun core s -> Alcotest.(check bool) (Printf.sprintf "core %d placed" core) true (s >= 0))
      m.Mapping.placement

let test_mapping_group_sharing_equalizes_tables () =
  (* Two use-cases in one smooth-switching group must end with identical
     slot occupancy (the shared configuration). *)
  let ucs =
    [
      uc ~id:0 ~cores:4 [ Flow.v ~src:0 ~dst:1 150.0 ];
      uc ~id:1 ~cores:4 [ Flow.v ~src:0 ~dst:1 60.0; Flow.v ~src:2 ~dst:3 40.0 ];
    ]
  in
  let config = { Config.default with nis_per_switch = 1 } in
  match Mapping.map_design ~config ~groups:[ [ 0; 1 ] ] ucs with
  | Error f -> Alcotest.fail (Format.asprintf "%a" Mapping.pp_failure f)
  | Ok m ->
    let report = Verify.verify m ucs in
    Alcotest.(check bool) (Format.asprintf "%a" Verify.pp_report report) true (Verify.ok report);
    let links = Mesh.link_count m.Mapping.mesh in
    for l = 0 to links - 1 do
      Alcotest.(check int)
        (Printf.sprintf "link %d same free count" l)
        (Resources.free_slots m.Mapping.states.(0) l)
        (Resources.free_slots m.Mapping.states.(1) l)
    done

let test_total_weighted_hops () =
  let ucs = [ uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 100.0 ] ] in
  let mesh = Mesh.create ~width:2 ~height:1 in
  match
    Mapping.map_with_placement ~config:Config.default ~mesh ~groups:[ [ 0 ] ]
      ~placement:[| 0; 1 |] ucs
  with
  | Error e -> Alcotest.fail e
  | Ok m -> check_float "bw x hops" 100.0 (Mapping.total_weighted_hops m)

(* --- verify: mutation detection -------------------------------------------- *)

let mapped_example1 () =
  match Mapping.map_design ~config:{ Config.default with nis_per_switch = 1 } ~groups:[ [ 0 ]; [ 1 ] ] example1 with
  | Ok m -> m
  | Error _ -> Alcotest.fail "example1 must map"

let test_verify_clean_design () =
  let m = mapped_example1 () in
  let r = Verify.verify m example1 in
  Alcotest.(check bool) "clean" true (Verify.ok r);
  Alcotest.(check bool) "many checks" true (r.Verify.checks > 20)

let test_verify_detects_missing_route () =
  let m = mapped_example1 () in
  let broken = { m with Mapping.routes = List.tl m.Mapping.routes } in
  let r = Verify.verify broken example1 in
  Alcotest.(check bool) "missing route caught" false (Verify.ok r)

let test_verify_detects_truncated_slots () =
  let m = mapped_example1 () in
  let break_route r =
    if r.Route.links <> [] then { r with Route.slot_starts = [] } else r
  in
  let broken = { m with Mapping.routes = List.map break_route m.Mapping.routes } in
  let r = Verify.verify broken example1 in
  Alcotest.(check bool) "bandwidth shortfall caught" false (Verify.ok r)

let test_verify_detects_wrong_placement () =
  let m = mapped_example1 () in
  let placement = Array.copy m.Mapping.placement in
  let tmp = placement.(0) in
  placement.(0) <- placement.(1);
  placement.(1) <- tmp;
  let r = Verify.verify { m with Mapping.placement } example1 in
  Alcotest.(check bool) "placement mismatch caught" false (Verify.ok r)

let test_verify_detects_broken_chain () =
  let m = mapped_example1 () in
  let break_route r =
    if List.length r.Route.links >= 1 then { r with Route.links = List.rev r.Route.links } else r
  in
  let any_multi = List.exists (fun r -> List.length r.Route.links >= 2) m.Mapping.routes in
  if any_multi then begin
    let broken = { m with Mapping.routes = List.map break_route m.Mapping.routes } in
    let r = Verify.verify broken example1 in
    Alcotest.(check bool) "chain break caught" false (Verify.ok r)
  end

let test_verify_detects_ni_overflow () =
  let m = mapped_example1 () in
  (* cram every core onto one switch while the config allows 1 NI *)
  let placement = Array.map (fun _ -> 0) m.Mapping.placement in
  let r = Verify.verify { m with Mapping.placement } example1 in
  Alcotest.(check bool) "NI overflow caught" false (Verify.ok r);
  Alcotest.(check bool) "right violation kind" true
    (List.exists (fun v -> v.Verify.kind = "ni-capacity") r.Verify.violations)

(* --- reconfig ------------------------------------------------------------------ *)

module Reconfig = Noc_core.Reconfig

let test_reconfig_independent_use_cases () =
  let m = mapped_example1 () in
  let c = Reconfig.pair m ~from_uc:0 ~to_uc:1 in
  Alcotest.(check bool) "not smooth" false c.Reconfig.smooth;
  (* both use-cases reserve slots, so the rewrite is non-empty *)
  Alcotest.(check bool) "writes needed" true (c.Reconfig.slot_writes > 0);
  Alcotest.(check bool) "time positive" true (c.Reconfig.reconfiguration_ns > 0.0)

let test_reconfig_smooth_group_is_free () =
  let ucs =
    [
      uc ~id:0 ~cores:4 [ Flow.v ~src:0 ~dst:1 150.0 ];
      uc ~id:1 ~cores:4 [ Flow.v ~src:0 ~dst:1 60.0; Flow.v ~src:2 ~dst:3 40.0 ];
    ]
  in
  let config = { Config.default with nis_per_switch = 1 } in
  match Mapping.map_design ~config ~groups:[ [ 0; 1 ] ] ucs with
  | Error _ -> Alcotest.fail "must map"
  | Ok m ->
    let c = Reconfig.pair m ~from_uc:0 ~to_uc:1 in
    Alcotest.(check bool) "smooth" true c.Reconfig.smooth;
    Alcotest.(check int) "zero writes" 0 c.Reconfig.slot_writes;
    check_float "zero time" 0.0 c.Reconfig.reconfiguration_ns

let test_reconfig_shared_pair_same_path_not_rewritten () =
  (* If both use-cases happen to route a pair identically, those
     entries must not be counted as rewrites. *)
  let ucs =
    [
      uc ~id:0 ~cores:2 [ Flow.v ~src:0 ~dst:1 62.5 ];
      uc ~id:1 ~cores:2 [ Flow.v ~src:0 ~dst:1 62.5 ];
    ]
  in
  let mesh = Noc_arch.Mesh.create ~width:2 ~height:1 in
  match
    Mapping.map_with_placement ~config:Config.default ~mesh ~groups:[ [ 0 ]; [ 1 ] ]
      ~placement:[| 0; 1 |] ucs
  with
  | Error e -> Alcotest.fail e
  | Ok m ->
    let c = Reconfig.pair m ~from_uc:0 ~to_uc:1 in
    (* same empty state, same greedy choice: identical path and slots *)
    Alcotest.(check int) "identical config" 0 c.Reconfig.slot_writes;
    Alcotest.(check int) "one shared path" 1 c.Reconfig.shared_paths

let test_reconfig_analyze_covers_pairs () =
  let m = mapped_example1 () in
  Alcotest.(check int) "one unordered pair" 1 (List.length (Reconfig.analyze m));
  Alcotest.(check bool) "worst exists" true (Reconfig.worst m <> None)

let test_reconfig_rejects_bad_ids () =
  let m = mapped_example1 () in
  Alcotest.(check bool) "same uc" true
    (try ignore (Reconfig.pair m ~from_uc:0 ~to_uc:0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "out of range" true
    (try ignore (Reconfig.pair m ~from_uc:0 ~to_uc:9); false with Invalid_argument _ -> true)

(* --- refine ------------------------------------------------------------------ *)

let test_refine_never_worse () =
  let m = mapped_example1 () in
  let outcome = Refine.anneal ~options:{ Refine.default_options with iterations = 40 } m example1 in
  Alcotest.(check bool) "cost not increased" true
    (outcome.Refine.final_cost <= outcome.Refine.initial_cost +. 1e-9);
  let r = Verify.verify outcome.Refine.result example1 in
  Alcotest.(check bool) "refined design verifies" true (Verify.ok r)

let test_refine_deterministic () =
  let m = mapped_example1 () in
  let opts = { Refine.default_options with iterations = 25 } in
  let a = Refine.anneal ~options:opts m example1 in
  let b = Refine.anneal ~options:opts m example1 in
  check_float "same final cost" a.Refine.final_cost b.Refine.final_cost

let test_tabu_never_worse () =
  let m = mapped_example1 () in
  let opts = { Refine.default_tabu_options with tabu_iterations = 20 } in
  let o = Refine.tabu ~options:opts m example1 in
  Alcotest.(check bool) "cost not increased" true
    (o.Refine.final_cost <= o.Refine.initial_cost +. 1e-9);
  let r = Verify.verify o.Refine.result example1 in
  Alcotest.(check bool) "tabu result verifies" true (Verify.ok r)

let test_tabu_deterministic () =
  let m = mapped_example1 () in
  let opts = { Refine.default_tabu_options with tabu_iterations = 15 } in
  let a = Refine.tabu ~options:opts m example1 in
  let b = Refine.tabu ~options:opts m example1 in
  check_float "same final cost" a.Refine.final_cost b.Refine.final_cost

let test_tabu_explores () =
  let m = mapped_example1 () in
  let o = Refine.tabu m example1 in
  Alcotest.(check bool) "evaluated moves" true (o.Refine.evaluated > 0)

(* --- design flow --------------------------------------------------------------- *)

let test_design_flow_end_to_end () =
  let spec =
    {
      DF.name = "flow-test";
      use_cases = example1;
      parallel = [ [ 0; 1 ] ];
      smooth = [];
    }
  in
  match DF.run spec with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check int) "compound added" 3 (List.length d.DF.all_use_cases);
    Alcotest.(check int) "one compound" 1 (List.length d.DF.compounds);
    (* compound requires smooth switching with members: single group *)
    Alcotest.(check (list (list int))) "grouping" [ [ 0; 1; 2 ] ] d.DF.groups;
    Alcotest.(check bool) "verified" true (DF.verified d)

let test_design_flow_smooth_only () =
  let spec = { DF.name = "s"; use_cases = example1; parallel = []; smooth = [ (0, 1) ] } in
  match DF.run spec with
  | Error e -> Alcotest.fail e
  | Ok d -> Alcotest.(check (list (list int))) "one group" [ [ 0; 1 ] ] d.DF.groups

let test_design_flow_no_constraints_singletons () =
  let spec = DF.spec_of_use_cases ~name:"plain" example1 in
  match DF.run spec with
  | Error e -> Alcotest.fail e
  | Ok d -> Alcotest.(check (list (list int))) "singleton groups" [ [ 0 ]; [ 1 ] ] d.DF.groups

let test_design_flow_rejects_empty () =
  Alcotest.(check bool) "error" true
    (Result.is_error (DF.run (DF.spec_of_use_cases ~name:"none" [])))

let test_design_flow_with_refine () =
  let spec = DF.spec_of_use_cases ~name:"r" example1 in
  match DF.run ~refine:true spec with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check bool) "refinement recorded" true (d.DF.refinement <> None);
    Alcotest.(check bool) "still verified" true (DF.verified d)

(* --- spec parser ----------------------------------------------------------------- *)

module Spec_parser = Noc_core.Spec_parser

let sample_spec_text =
  String.concat "\n"
    [
      "# comment";
      "name demo";
      "cores 4";
      "";
      "use-case video";
      "  flow 0 -> 1 bw 100";
      "  flow 1 -> 2 bw 75 lat 500";
      "";
      "use-case browse";
      "  flow 2 -> 3 bw 40 be";
      "";
      "parallel video browse";
      "smooth video browse";
      "";
    ]

let test_spec_parse_valid () =
  match Spec_parser.parse ~name:"fallback" sample_spec_text with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Spec_parser.pp_error e)
  | Ok spec ->
    Alcotest.(check string) "explicit name wins" "demo" spec.DF.name;
    Alcotest.(check int) "two use-cases" 2 (List.length spec.DF.use_cases);
    Alcotest.(check (list (list int))) "parallel" [ [ 0; 1 ] ] spec.DF.parallel;
    Alcotest.(check (list (pair int int))) "smooth" [ (0, 1) ] spec.DF.smooth;
    (match spec.DF.use_cases with
    | [ video; browse ] ->
      Alcotest.(check int) "video flows" 2 (U.flow_count video);
      Alcotest.(check int) "browse flows" 1 (U.flow_count browse);
      (match U.find_flow video ~src:1 ~dst:2 with
      | Some f -> check_float "latency parsed" 500.0 f.Flow.latency_ns
      | None -> Alcotest.fail "flow missing");
      (match browse.U.flows with
      | [ f ] -> Alcotest.(check bool) "be parsed" false (Flow.is_guaranteed f)
      | _ -> Alcotest.fail "browse should have one flow")
    | _ -> Alcotest.fail "two use-cases expected")

let test_spec_parse_runs_through_flow () =
  match Spec_parser.parse ~name:"x" sample_spec_text with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Spec_parser.pp_error e)
  | Ok spec -> (
    match DF.run spec with
    | Ok d -> Alcotest.(check bool) "verified" true (DF.verified d)
    | Error msg -> Alcotest.fail msg)

let test_spec_parse_errors_carry_lines () =
  let expect_error_on_line text line =
    match Spec_parser.parse ~name:"e" text with
    | Ok _ -> Alcotest.fail "should not parse"
    | Error e -> Alcotest.(check int) "error line" line e.Spec_parser.line
  in
  expect_error_on_line "cores 4\nuse-case a\n  flow 0 -> 9 bw 5\n" 3;
  expect_error_on_line "cores 4\nbogus directive\n" 2;
  expect_error_on_line "cores 4\n  flow 0 -> 1 bw 5\n" 2;
  (* flow before any use-case *)
  expect_error_on_line "cores 4\nuse-case a\nparallel a b\n" 3
(* unknown use-case name *)

(* Non-finite numbers are located parse errors, not values that crash
   or silently poison the flow later; an unbounded latency is legal. *)
let test_spec_parse_non_finite () =
  let flow opts = Printf.sprintf "cores 4\nuse-case a\n  flow 0 -> 1 %s\n" opts in
  List.iter
    (fun opts ->
      match Spec_parser.parse ~name:"e" (flow opts) with
      | Ok _ -> Alcotest.failf "'%s' should not parse" opts
      | Error e -> Alcotest.(check int) (opts ^ ": error line") 3 e.Spec_parser.line)
    [ "bw nan"; "bw inf"; "bw -inf"; "bw 5 lat nan" ];
  match Spec_parser.parse ~name:"e" (flow "bw 5 lat inf") with
  | Ok spec ->
    let f = List.hd (List.hd spec.DF.use_cases).U.flows in
    Alcotest.(check bool) "lat inf is unconstrained" true (f.Flow.latency_ns = infinity)
  | Error _ -> Alcotest.fail "lat inf should parse"

let test_spec_parse_missing_cores () =
  match Spec_parser.parse ~name:"e" "use-case a\n  flow 0 -> 1 bw 5\n" with
  | Ok _ -> Alcotest.fail "should not parse"
  | Error e -> Alcotest.(check bool) "mentions cores" true (e.Spec_parser.line >= 0)

let test_spec_roundtrip () =
  match Spec_parser.parse ~name:"fallback" sample_spec_text with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Spec_parser.pp_error e)
  | Ok spec -> (
    let text = Spec_parser.to_text spec in
    match Spec_parser.parse ~name:"fallback" text with
    | Error e -> Alcotest.fail (Format.asprintf "re-parse: %a" Spec_parser.pp_error e)
    | Ok spec' ->
      Alcotest.(check string) "name" spec.DF.name spec'.DF.name;
      Alcotest.(check int) "use-case count" (List.length spec.DF.use_cases)
        (List.length spec'.DF.use_cases);
      Alcotest.(check (list (list int))) "parallel" spec.DF.parallel spec'.DF.parallel;
      Alcotest.(check (list (pair int int))) "smooth" spec.DF.smooth spec'.DF.smooth;
      List.iter2
        (fun a b ->
          Alcotest.(check int) "flows" (U.flow_count a) (U.flow_count b);
          check_float "total bw" (U.total_bandwidth a) (U.total_bandwidth b))
        spec.DF.use_cases spec'.DF.use_cases)

let prop_spec_roundtrip_random =
  QCheck.Test.make ~name:"generated specs survive the text round-trip" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let params =
        { Noc_benchkit.Synthetic.spread_params with cores = 8; flows_lo = 3; flows_hi = 10 }
      in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:3 in
      let spec =
        { DF.name = "prop"; use_cases = ucs; parallel = [ [ 0; 2 ] ]; smooth = [ (1, 2) ] }
      in
      match Spec_parser.parse ~name:"prop" (Spec_parser.to_text spec) with
      | Error _ -> false
      | Ok spec' ->
        List.for_all2
          (fun a b ->
            U.flow_count a = U.flow_count b
            && Float.abs (U.total_bandwidth a -. U.total_bandwidth b) < 1e-3)
          spec.DF.use_cases spec'.DF.use_cases
        && spec'.DF.parallel = spec.DF.parallel
        && spec'.DF.smooth = spec.DF.smooth)

(* --- property: random designs map and verify ---------------------------------- *)

let prop_random_designs_verify =
  QCheck.Test.make ~name:"random small designs map and verify" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let params =
        {
          Noc_benchkit.Synthetic.spread_params with
          cores = 10;
          flows_lo = 8;
          flows_hi = 20;
        }
      in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:3 in
      match DF.run (DF.spec_of_use_cases ~name:"prop" ucs) with
      | Error _ -> false
      | Ok d -> DF.verified d)

let prop_grouped_designs_verify =
  QCheck.Test.make ~name:"designs with parallel modes map and verify" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let params =
        {
          Noc_benchkit.Synthetic.spread_params with
          cores = 8;
          flows_lo = 5;
          flows_hi = 12;
        }
      in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:3 in
      let spec =
        { DF.name = "prop2"; use_cases = ucs; parallel = [ [ 0; 1 ] ]; smooth = [ (1, 2) ] }
      in
      match DF.run spec with
      | Error _ -> false
      | Ok d -> DF.verified d && List.length d.DF.groups = 1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wc_dominates_members;
      prop_random_designs_verify;
      prop_grouped_designs_verify;
      prop_spec_roundtrip_random;
    ]

let () =
  Alcotest.run "noc_core"
    [
      ( "compound",
        [
          Alcotest.test_case "merge rule" `Quick test_compound_merge_rule;
          Alcotest.test_case "merge rejects empty" `Quick test_compound_merge_rejects_empty;
          Alcotest.test_case "generate ids/names" `Quick test_compound_generate_ids_and_names;
          Alcotest.test_case "rejects singleton" `Quick test_compound_generate_rejects_singleton;
          Alcotest.test_case "rejects unknown" `Quick test_compound_generate_rejects_unknown;
          Alcotest.test_case "rejects duplicates" `Quick test_compound_generate_rejects_duplicates;
        ] );
      ( "switching",
        [
          Alcotest.test_case "figure 4 grouping" `Quick test_fig4_grouping;
          Alcotest.test_case "figure 4 group_of" `Quick test_fig4_group_of;
          Alcotest.test_case "requires_smooth" `Quick test_switching_requires_smooth;
          Alcotest.test_case "rejects self edge" `Quick test_switching_rejects_self_edge;
          Alcotest.test_case "reconfigurable count" `Quick test_switching_reconfigurable_count;
          Alcotest.test_case "transitive grouping" `Quick test_switching_transitive_grouping;
        ] );
      ( "worst_case",
        [
          Alcotest.test_case "synthetic max/min" `Quick test_wc_synthetic_max_min;
          Alcotest.test_case "overspecification grows" `Quick test_wc_overspecification_grows;
        ] );
      ( "path_select",
        [
          Alcotest.test_case "fresh state" `Quick test_resources_fresh_state;
          Alcotest.test_case "route reserves" `Quick test_route_reserves_resources;
          Alcotest.test_case "same-switch route" `Quick test_route_same_switch_needs_no_links;
          Alcotest.test_case "tight latency escalates" `Quick test_route_tight_latency_takes_more_slots;
          Alcotest.test_case "over capacity" `Quick test_route_rejects_over_capacity;
          Alcotest.test_case "saturation" `Quick test_route_fails_when_saturated;
          Alcotest.test_case "group sharing" `Quick test_route_shared_uses_same_slots;
          Alcotest.test_case "passive mirror" `Quick test_route_shared_passive_mirrors;
          Alcotest.test_case "NI budget" `Quick test_ni_constraint_enforced;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "example1 single switch" `Quick test_example1_maps_on_single_switch;
          Alcotest.test_case "example1 forced spread" `Quick test_example1_forced_spread;
          Alcotest.test_case "route counts" `Quick test_mapping_routes_count_matches_flows;
          Alcotest.test_case "NI capacity" `Quick test_mapping_respects_ni_capacity;
          Alcotest.test_case "positional ids" `Quick test_mapping_positional_id_enforced;
          Alcotest.test_case "group partition" `Quick test_mapping_group_partition_enforced;
          Alcotest.test_case "failure attempts" `Quick test_mapping_failure_reports_attempts;
          Alcotest.test_case "huge bandwidth infeasible" `Quick
            test_mapping_huge_bandwidth_infeasible;
          Alcotest.test_case "one attempt per tried size" `Quick test_growth_attempts_sequential;
          Alcotest.test_case "fixed placement" `Quick test_map_with_placement_fixed;
          Alcotest.test_case "fixed placement rejects unplaced" `Quick test_map_with_placement_rejects_unplaced;
          Alcotest.test_case "flow-less cores placed" `Quick test_mapping_flowless_cores_get_nis;
          Alcotest.test_case "group sharing equalizes tables" `Quick test_mapping_group_sharing_equalizes_tables;
          Alcotest.test_case "weighted hops" `Quick test_total_weighted_hops;
        ] );
      ( "verify",
        [
          Alcotest.test_case "clean design" `Quick test_verify_clean_design;
          Alcotest.test_case "missing route" `Quick test_verify_detects_missing_route;
          Alcotest.test_case "truncated slots" `Quick test_verify_detects_truncated_slots;
          Alcotest.test_case "wrong placement" `Quick test_verify_detects_wrong_placement;
          Alcotest.test_case "broken chain" `Quick test_verify_detects_broken_chain;
          Alcotest.test_case "NI overflow" `Quick test_verify_detects_ni_overflow;
        ] );
      ( "reconfig",
        [
          Alcotest.test_case "independent use-cases" `Quick test_reconfig_independent_use_cases;
          Alcotest.test_case "smooth group free" `Quick test_reconfig_smooth_group_is_free;
          Alcotest.test_case "identical paths not rewritten" `Quick
            test_reconfig_shared_pair_same_path_not_rewritten;
          Alcotest.test_case "analyze covers pairs" `Quick test_reconfig_analyze_covers_pairs;
          Alcotest.test_case "rejects bad ids" `Quick test_reconfig_rejects_bad_ids;
        ] );
      ( "refine",
        [
          Alcotest.test_case "never worse" `Quick test_refine_never_worse;
          Alcotest.test_case "deterministic" `Quick test_refine_deterministic;
          Alcotest.test_case "tabu never worse" `Quick test_tabu_never_worse;
          Alcotest.test_case "tabu deterministic" `Quick test_tabu_deterministic;
          Alcotest.test_case "tabu explores" `Quick test_tabu_explores;
        ] );
      ( "spec_parser",
        [
          Alcotest.test_case "parse valid" `Quick test_spec_parse_valid;
          Alcotest.test_case "runs through the flow" `Quick test_spec_parse_runs_through_flow;
          Alcotest.test_case "errors carry lines" `Quick test_spec_parse_errors_carry_lines;
          Alcotest.test_case "missing cores" `Quick test_spec_parse_missing_cores;
          Alcotest.test_case "non-finite numbers located" `Quick test_spec_parse_non_finite;
          Alcotest.test_case "round trip" `Quick test_spec_roundtrip;
        ] );
      ( "design_flow",
        [
          Alcotest.test_case "end to end" `Quick test_design_flow_end_to_end;
          Alcotest.test_case "smooth only" `Quick test_design_flow_smooth_only;
          Alcotest.test_case "singleton groups" `Quick test_design_flow_no_constraints_singletons;
          Alcotest.test_case "rejects empty" `Quick test_design_flow_rejects_empty;
          Alcotest.test_case "with refinement" `Quick test_design_flow_with_refine;
        ] );
      ("properties", qcheck_cases);
    ]
