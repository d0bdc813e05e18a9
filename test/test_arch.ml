(* Tests for Noc_arch: configuration, mesh topology, slot tables, TDMA
   alignment, routes, turn-model deadlock analysis. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module St = Noc_arch.Slot_table
module Tdma = Noc_arch.Tdma
module Route = Noc_arch.Route
module Turn = Noc_arch.Turn_model

let check_float = Alcotest.(check (float 1e-9))

(* --- config ----------------------------------------------------------- *)

let test_config_default_valid () =
  Alcotest.(check bool) "default validates" true (Config.validate Config.default = Ok ())

let test_config_capacity () =
  check_float "paper operating point" 2000.0 (Config.link_capacity Config.default);
  check_float "slot bandwidth" (2000.0 /. 32.0) (Config.slot_bandwidth Config.default)

let test_config_slot_duration () =
  (* 4 cycles at 500 MHz = 8 ns *)
  check_float "slot duration" 8.0 (Config.slot_duration_ns Config.default)

let test_config_with_freq () =
  let c = Config.with_freq Config.default 1000.0 in
  check_float "doubled capacity" 4000.0 (Config.link_capacity c)

let test_config_slots_for_bandwidth () =
  Alcotest.(check int) "zero" 0 (Config.slots_for_bandwidth Config.default 0.0);
  Alcotest.(check int) "one slot" 1 (Config.slots_for_bandwidth Config.default 62.5);
  Alcotest.(check int) "full link" 32 (Config.slots_for_bandwidth Config.default 2000.0)

let test_config_rejections () =
  let bad check cfg = Alcotest.(check bool) check true (Result.is_error (Config.validate cfg)) in
  bad "freq" { Config.default with freq_mhz = 0.0 };
  bad "width" { Config.default with link_width_bits = 0 };
  bad "slots" { Config.default with slots = 0 };
  bad "slot cycles" { Config.default with slot_cycles = -1 };
  bad "nis" { Config.default with nis_per_switch = 0 };
  bad "mesh dim" { Config.default with max_mesh_dim = 0 };
  bad "slots ceiling" { Config.default with slots = 1025 };
  bad "mesh dim ceiling" { Config.default with max_mesh_dim = 65 };
  Alcotest.(check bool) "ceilings themselves are valid" true
    (Result.is_ok (Config.validate { Config.default with slots = 1024; max_mesh_dim = 64 }));
  bad "hw factor" { Config.default with placement_hw_factor = 0.0 };
  bad "spread factor" { Config.default with placement_spread_factor = -1.0 }

(* --- mesh ------------------------------------------------------------- *)

let test_mesh_counts () =
  let m = Mesh.create ~width:3 ~height:2 in
  Alcotest.(check int) "switches" 6 (Mesh.switch_count m);
  (* directed links: 2*(w*(h-1) + h*(w-1)) = 2*(3*1 + 2*2) = 14 *)
  Alcotest.(check int) "links" 14 (Mesh.link_count m)

let test_mesh_1x1 () =
  let m = Mesh.create ~width:1 ~height:1 in
  Alcotest.(check int) "one switch" 1 (Mesh.switch_count m);
  Alcotest.(check int) "no links" 0 (Mesh.link_count m)

let test_mesh_coord_roundtrip () =
  let m = Mesh.create ~width:4 ~height:3 in
  for s = 0 to Mesh.switch_count m - 1 do
    let x, y = Mesh.coord m s in
    Alcotest.(check int) "roundtrip" s (Mesh.switch_at m ~x ~y)
  done

let test_mesh_link_endpoints_adjacent () =
  let m = Mesh.create ~width:3 ~height:3 in
  for l = 0 to Mesh.link_count m - 1 do
    let a, b = Mesh.link_endpoints m l in
    Alcotest.(check int) "adjacent" 1 (Mesh.manhattan m a b)
  done

let test_mesh_link_between () =
  let m = Mesh.create ~width:2 ~height:2 in
  let a = Mesh.switch_at m ~x:0 ~y:0 and b = Mesh.switch_at m ~x:1 ~y:0 in
  (match Mesh.link_between m ~src:a ~dst:b with
  | Some l -> Alcotest.(check (pair int int)) "endpoints" (a, b) (Mesh.link_endpoints m l)
  | None -> Alcotest.fail "adjacent link expected");
  let c = Mesh.switch_at m ~x:1 ~y:1 in
  Alcotest.(check bool) "diagonal has no link" true (Mesh.link_between m ~src:a ~dst:c = None)

let test_mesh_both_directions_distinct () =
  let m = Mesh.create ~width:2 ~height:1 in
  let f = Option.get (Mesh.link_between m ~src:0 ~dst:1) in
  let b = Option.get (Mesh.link_between m ~src:1 ~dst:0) in
  Alcotest.(check bool) "distinct ids" true (f <> b)

let test_mesh_xy_route () =
  let m = Mesh.create ~width:4 ~height:4 in
  let src = Mesh.switch_at m ~x:0 ~y:0 and dst = Mesh.switch_at m ~x:3 ~y:2 in
  let route = Mesh.xy_route m ~src ~dst in
  Alcotest.(check int) "manhattan length" 5 (List.length route);
  (* The route is a connected chain from src to dst. *)
  let final =
    List.fold_left
      (fun at l ->
        let a, b = Mesh.link_endpoints m l in
        Alcotest.(check int) "chain" at a;
        b)
      src route
  in
  Alcotest.(check int) "reaches dst" dst final

let test_mesh_xy_route_same_switch () =
  let m = Mesh.create ~width:2 ~height:2 in
  Alcotest.(check (list int)) "empty" [] (Mesh.xy_route m ~src:0 ~dst:0)

let test_mesh_growth_sequence () =
  let seq = Mesh.growth_sequence ~max_dim:3 in
  Alcotest.(check (list (pair int int))) "sequence" [ (1, 1); (2, 1); (2, 2); (3, 2); (3, 3) ] seq

let test_mesh_growth_monotone () =
  let seq = Mesh.growth_sequence ~max_dim:8 in
  let sizes = List.map (fun (w, h) -> w * h) seq in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly growing" true (increasing sizes)

let test_mesh_center () =
  let m = Mesh.create ~width:3 ~height:3 in
  Alcotest.(check int) "center of 3x3" (Mesh.switch_at m ~x:1 ~y:1) (Mesh.center m)

let test_mesh_rejects_bad_dims () =
  Alcotest.check_raises "zero width" (Invalid_argument "Mesh.create: non-positive dimension")
    (fun () -> ignore (Mesh.create ~width:0 ~height:2))

(* --- torus ------------------------------------------------------------- *)

let test_torus_link_count () =
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:4 ~height:3 in
  (* mesh links 2*(4*2 + 3*3) = 34, plus x-wrap 2*3 = 6, y-wrap 2*4 = 8 *)
  Alcotest.(check int) "wrap links added" 48 (Mesh.link_count t);
  Alcotest.(check bool) "is torus" true (Mesh.kind t = Mesh.Torus)

let test_torus_small_dims_no_parallel_links () =
  (* width 2 must not create a parallel wrap link *)
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:2 ~height:2 in
  let m = Mesh.create ~width:2 ~height:2 in
  Alcotest.(check int) "same as mesh" (Mesh.link_count m) (Mesh.link_count t)

let test_torus_wrap_neighbor () =
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:4 ~height:3 in
  let east_edge = Mesh.switch_at t ~x:3 ~y:1 in
  Alcotest.(check (option int)) "east wraps" (Some (Mesh.switch_at t ~x:0 ~y:1))
    (Mesh.neighbor_toward t east_edge Mesh.East);
  let m = Mesh.create ~width:4 ~height:3 in
  Alcotest.(check (option int)) "mesh boundary" None
    (Mesh.neighbor_toward m east_edge Mesh.East)

let test_torus_manhattan_shorter () =
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:6 ~height:1 in
  let a = Mesh.switch_at t ~x:0 ~y:0 and b = Mesh.switch_at t ~x:5 ~y:0 in
  Alcotest.(check int) "one wrap hop" 1 (Mesh.manhattan t a b);
  let m = Mesh.create ~width:6 ~height:1 in
  Alcotest.(check int) "mesh distance" 5 (Mesh.manhattan m a b)

let test_torus_xy_route_uses_wrap () =
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:6 ~height:6 in
  let src = Mesh.switch_at t ~x:0 ~y:0 and dst = Mesh.switch_at t ~x:5 ~y:5 in
  let route = Mesh.xy_route t ~src ~dst in
  (* shorter way around: 1 hop west-wrap + 1 hop north-wrap *)
  Alcotest.(check int) "wrap route length" 2 (List.length route);
  Alcotest.(check int) "matches manhattan" (Mesh.manhattan t src dst) (List.length route)

let test_torus_route_chain_valid () =
  let t = Mesh.create_kind ~kind:Mesh.Torus ~width:5 ~height:4 in
  for src = 0 to Mesh.switch_count t - 1 do
    for dst = 0 to Mesh.switch_count t - 1 do
      let route = Mesh.xy_route t ~src ~dst in
      let final =
        List.fold_left
          (fun at l ->
            let a, b = Mesh.link_endpoints t l in
            Alcotest.(check int) "chain" at a;
            b)
          src route
      in
      Alcotest.(check int) "reaches dst" dst final;
      Alcotest.(check int) "minimal" (Mesh.manhattan t src dst) (List.length route)
    done
  done

(* --- express channels --------------------------------------------------- *)

let test_express_adds_links () =
  let m = Mesh.create ~width:4 ~height:1 in
  let e = Mesh.with_express m ~express:[ (0, 3) ] in
  Alcotest.(check int) "two more directed links" (Mesh.link_count m + 2) (Mesh.link_count e);
  Alcotest.(check bool) "link exists" true (Mesh.link_between e ~src:0 ~dst:3 <> None);
  Alcotest.(check bool) "reverse too" true (Mesh.link_between e ~src:3 ~dst:0 <> None)

let test_express_preserves_grid_link_ids () =
  let m = Mesh.create ~width:3 ~height:3 in
  let e = Mesh.with_express m ~express:[ (0, 8) ] in
  for l = 0 to Mesh.link_count m - 1 do
    Alcotest.(check (pair int int)) "same endpoints" (Mesh.link_endpoints m l)
      (Mesh.link_endpoints e l)
  done

let test_express_shortens_min_cost_path () =
  let m = Mesh.create ~width:6 ~height:1 in
  let e = Mesh.with_express m ~express:[ (0, 5) ] in
  let cost ~edge:_ ~src:_ ~dst:_ = Some 1.0 in
  let hops g =
    match Noc_graph.Shortest_path.dijkstra (Mesh.graph g) ~cost ~source:0 ~target:5 with
    | Some p -> List.length p.Noc_graph.Shortest_path.edges
    | None -> max_int
  in
  Alcotest.(check int) "grid path" 5 (hops m);
  Alcotest.(check int) "express path" 1 (hops e)

let test_express_rejections () =
  let m = Mesh.create ~width:3 ~height:1 in
  let bad name express =
    Alcotest.(check bool) name true
      (try ignore (Mesh.with_express m ~express); false with Invalid_argument _ -> true)
  in
  bad "out of range" [ (0, 9) ];
  bad "self loop" [ (1, 1) ];
  bad "already adjacent" [ (0, 1) ]

(* --- slot table -------------------------------------------------------- *)

let test_slot_table_lifecycle () =
  let t = St.create ~slots:8 in
  Alcotest.(check int) "slots" 8 (St.slots t);
  Alcotest.(check int) "all free" 8 (St.free_count t);
  St.reserve t ~slot:3 ~owner:42;
  Alcotest.(check bool) "taken" false (St.is_free t 3);
  Alcotest.(check (option int)) "owner" (Some 42) (St.owner t 3);
  Alcotest.(check int) "used" 1 (St.used_count t);
  St.release t ~slot:3;
  Alcotest.(check int) "freed" 8 (St.free_count t)

let test_slot_table_modular_indexing () =
  let t = St.create ~slots:8 in
  St.reserve t ~slot:10 ~owner:1;
  (* 10 mod 8 = 2 *)
  Alcotest.(check bool) "slot 2 taken" false (St.is_free t 2);
  Alcotest.(check bool) "negative index wraps" false (St.is_free t (-6))

let test_slot_table_double_reserve_rejected () =
  let t = St.create ~slots:4 in
  St.reserve t ~slot:0 ~owner:1;
  Alcotest.check_raises "double" (Invalid_argument "Slot_table.reserve: slot already owned")
    (fun () -> St.reserve t ~slot:0 ~owner:2)

let test_slot_table_release_owner () =
  let t = St.create ~slots:8 in
  St.reserve t ~slot:0 ~owner:5;
  St.reserve t ~slot:1 ~owner:5;
  St.reserve t ~slot:2 ~owner:6;
  Alcotest.(check int) "freed two" 2 (St.release_owner t ~owner:5);
  Alcotest.(check int) "one left" 1 (St.used_count t)

let test_slot_table_free_slots_sorted () =
  let t = St.create ~slots:5 in
  St.reserve t ~slot:1 ~owner:0;
  St.reserve t ~slot:3 ~owner:0;
  Alcotest.(check (list int)) "free list" [ 0; 2; 4 ] (St.free_slots t)

let test_slot_table_copy_independent () =
  let t = St.create ~slots:4 in
  let c = St.copy t in
  St.reserve t ~slot:0 ~owner:1;
  Alcotest.(check bool) "copy untouched" true (St.is_free c 0)

let test_slot_table_utilization () =
  let t = St.create ~slots:4 in
  St.reserve t ~slot:0 ~owner:0;
  check_float "quarter" 0.25 (St.utilization t)

(* --- tdma --------------------------------------------------------------- *)

let tables n slots = Array.init n (fun _ -> St.create ~slots)

let test_tdma_free_starts_empty_path_tables () =
  let ts = tables 3 8 in
  Alcotest.(check (list int)) "all starts" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (Tdma.free_starts ~tables:ts)

let test_tdma_alignment_shifts () =
  (* Reserving slot 0 on hop 0 and slot 1 on hop 1 with one start=0:
     occupancy must be shifted by one per hop. *)
  let ts = tables 3 8 in
  Tdma.reserve ~tables:ts ~owner:9 ~starts:[ 0 ];
  Alcotest.(check bool) "hop0 slot0" false (St.is_free ts.(0) 0);
  Alcotest.(check bool) "hop1 slot1" false (St.is_free ts.(1) 1);
  Alcotest.(check bool) "hop2 slot2" false (St.is_free ts.(2) 2);
  Alcotest.(check bool) "hop1 slot0 free" true (St.is_free ts.(1) 0)

let test_tdma_start_blocked_by_downstream () =
  let ts = tables 2 8 in
  (* block slot 1 on hop 1 => start 0 infeasible *)
  St.reserve ts.(1) ~slot:1 ~owner:1;
  Alcotest.(check bool) "start 0 blocked" false (Tdma.start_is_free ~tables:ts ~start:0);
  Alcotest.(check bool) "start 1 fine" true (Tdma.start_is_free ~tables:ts ~start:1)

let test_tdma_find_aligned_count () =
  let ts = tables 2 8 in
  match Tdma.find_aligned ~tables:ts ~count:3 with
  | Some starts ->
    Alcotest.(check int) "three starts" 3 (List.length starts);
    Alcotest.(check (list int)) "sorted distinct" (List.sort_uniq compare starts) starts
  | None -> Alcotest.fail "expected starts"

let test_tdma_find_aligned_insufficient () =
  let ts = tables 1 4 in
  for s = 0 to 2 do
    St.reserve ts.(0) ~slot:s ~owner:0
  done;
  Alcotest.(check bool) "only one free" true (Tdma.find_aligned ~tables:ts ~count:2 = None)

let test_tdma_choose_spread_minimises_gap () =
  (* With all 8 starts free, choosing 4 must leave a max gap of 2. *)
  match Tdma.choose_spread ~slots:8 ~candidates:[ 0; 1; 2; 3; 4; 5; 6; 7 ] ~count:4 with
  | Some starts -> Alcotest.(check int) "even spacing" 2 (Tdma.max_start_gap ~slots:8 ~starts)
  | None -> Alcotest.fail "expected spread"

let test_tdma_reserve_release_roundtrip () =
  let ts = tables 3 8 in
  Tdma.reserve ~tables:ts ~owner:5 ~starts:[ 0; 4 ];
  Alcotest.(check int) "hop0 used" 2 (St.used_count ts.(0));
  Tdma.release ~tables:ts ~owner:5;
  Array.iter (fun t -> Alcotest.(check int) "all free" 0 (St.used_count t)) ts

let test_tdma_max_start_gap_single () =
  Alcotest.(check int) "single start = full revolution" 8
    (Tdma.max_start_gap ~slots:8 ~starts:[ 3 ])

let test_tdma_max_start_gap_pair () =
  Alcotest.(check int) "gap wraps" 6 (Tdma.max_start_gap ~slots:8 ~starts:[ 0; 2 ])

let test_tdma_latency_bound () =
  (* default config: 8 ns slots; 1 start in 32 slots, 3 hops:
     (32 + 3) * 8 = 280 ns *)
  check_float "bound" 280.0
    (Tdma.worst_case_latency_ns ~config:Config.default ~starts:[ 0 ] ~hops:3)

let test_tdma_more_slots_lower_latency () =
  let one = Tdma.worst_case_latency_ns ~config:Config.default ~starts:[ 0 ] ~hops:2 in
  let two = Tdma.worst_case_latency_ns ~config:Config.default ~starts:[ 0; 16 ] ~hops:2 in
  Alcotest.(check bool) "two starts faster" true (two < one)

let test_tdma_mismatched_tables_rejected () =
  let ts = [| St.create ~slots:8; St.create ~slots:16 |] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Tdma: slot-table size mismatch") (fun () ->
      ignore (Tdma.free_starts ~tables:ts))

let prop_tdma_reserved_starts_were_free =
  QCheck.Test.make ~name:"find_aligned returns genuinely free starts" ~count:200
    QCheck.(pair (int_range 1 5) (list (int_bound 31)))
    (fun (hops, blocked) ->
      let ts = tables hops 32 in
      List.iteri
        (fun i s ->
          let hop = i mod hops in
          if St.is_free ts.(hop) s then St.reserve ts.(hop) ~slot:s ~owner:99)
        blocked;
      match Tdma.find_aligned ~tables:ts ~count:2 with
      | None -> true
      | Some starts -> List.for_all (fun s -> Tdma.start_is_free ~tables:ts ~start:s) starts)

(* --- NI buffer sizing ----------------------------------------------------- *)

module Ni_buffer = Noc_arch.Ni_buffer

let test_ni_buffer_single_slot () =
  (* one slot in a 32-slot revolution at 62.5 MB/s: gap = 32 slots of
     8 ns = 256 ns -> 16 bytes + 16 payload = 32 bytes = 8 words *)
  let bytes = Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0 ] ~bw:62.5 in
  check_float "bytes" 32.0 bytes;
  Alcotest.(check int) "words" 8 (Ni_buffer.required_words ~config:Config.default ~starts:[ 0 ] ~bw:62.5)

let test_ni_buffer_spread_slots_need_less () =
  let one = Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0 ] ~bw:62.5 in
  let four = Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0; 8; 16; 24 ] ~bw:62.5 in
  Alcotest.(check bool) "even spread shrinks the buffer" true (four < one)

let test_ni_buffer_grows_with_bandwidth () =
  let slow = Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0; 16 ] ~bw:50.0 in
  let fast = Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0; 16 ] ~bw:100.0 in
  Alcotest.(check bool) "monotone in bw" true (fast > slow)

let test_ni_buffer_rejections () =
  Alcotest.(check bool) "no starts" true
    (try ignore (Ni_buffer.required_bytes ~config:Config.default ~starts:[] ~bw:1.0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad bw" true
    (try ignore (Ni_buffer.required_bytes ~config:Config.default ~starts:[ 0 ] ~bw:0.0); false
     with Invalid_argument _ -> true)

let test_ni_buffer_per_core_totals () =
  let r1 = (* core 0 -> core 1 over one link *)
    {
      Route.flow_id = 0; use_case = 0; src_core = 0; dst_core = 1; src_switch = 0;
      dst_switch = 1; bandwidth = 62.5; service = Route.Gt; links = [ 0 ]; slot_starts = [ 0 ];
    }
  in
  let totals = Ni_buffer.per_core_totals ~config:Config.default ~cores:3 [ r1 ] in
  Alcotest.(check bool) "source buffers dominate" true (totals.(0) > totals.(1));
  Alcotest.(check int) "uninvolved core" 0 totals.(2)

(* --- service curves --------------------------------------------------------- *)

module Sc = Noc_arch.Service_curve

let test_service_curve_of_reservation () =
  (* 2 evenly spread slots of 32: rho = 125 MB/s; gap 16, 3 hops:
     theta = 19 * 8 ns = 152 ns *)
  let sc = Sc.of_reservation ~config:Config.default ~starts:[ 0; 16 ] ~hops:3 in
  check_float "rate" 125.0 sc.Sc.rate_mbps;
  check_float "latency" 152.0 sc.Sc.latency_ns

let test_service_curve_delay_bound () =
  let sc = Sc.of_reservation ~config:Config.default ~starts:[ 0; 16 ] ~hops:3 in
  (* fluid input (sigma = 0): the LR latency itself *)
  check_float "fluid" 152.0 (Sc.delay_bound_ns sc ~burst_bytes:0.0 ~rate_mbps:100.0);
  (* 125 bytes of burst at rho = 125 MB/s adds 1000 ns *)
  check_float "bursty" (152.0 +. 1000.0)
    (Sc.delay_bound_ns sc ~burst_bytes:125.0 ~rate_mbps:100.0)

let test_service_curve_backlog_bound () =
  let sc = Sc.of_reservation ~config:Config.default ~starts:[ 0 ] ~hops:1 in
  let b = Sc.backlog_bound_bytes sc ~burst_bytes:100.0 ~rate_mbps:50.0 in
  (* theta = 33 slots * 8 ns = 264 ns; 50 MB/s = 0.05 B/ns -> 13.2 B *)
  check_float "bound" (100.0 +. (0.05 *. 264.0)) b

let test_service_curve_rejects_overload () =
  let sc = Sc.of_reservation ~config:Config.default ~starts:[ 0 ] ~hops:1 in
  Alcotest.(check bool) "rate above rho" true
    (try ignore (Sc.delay_bound_ns sc ~burst_bytes:0.0 ~rate_mbps:100.0); false
     with Invalid_argument _ -> true)

let test_service_curve_of_route () =
  let gt =
    { Route.flow_id = 0; use_case = 0; src_core = 0; dst_core = 1; src_switch = 0;
      dst_switch = 1; bandwidth = 62.5; service = Route.Gt; links = [ 0 ]; slot_starts = [ 0 ] }
  in
  let be = { gt with Route.service = Route.Be; slot_starts = [] } in
  let local = { gt with Route.links = []; slot_starts = [] } in
  Alcotest.(check bool) "gt has a curve" true (Sc.of_route ~config:Config.default gt <> None);
  Alcotest.(check bool) "be has none" true (Sc.of_route ~config:Config.default be = None);
  (match Sc.of_route ~config:Config.default local with
  | Some sc -> check_float "local rate = link capacity" 2000.0 sc.Sc.rate_mbps
  | None -> Alcotest.fail "local GT route should have a curve")

let test_on_off_burstiness () =
  (* 100 MB/s mean, 1000 ns period, duty 0.25: sigma = 0.1 * 1000 * 0.75 = 75 B *)
  check_float "sigma" 75.0 (Sc.on_off_burstiness ~mean_mbps:100.0 ~period_ns:1000.0 ~duty:0.25);
  check_float "duty 1 = fluid" 0.0 (Sc.on_off_burstiness ~mean_mbps:100.0 ~period_ns:1000.0 ~duty:1.0)

(* --- route / turn model ------------------------------------------------ *)

let mk_route ?(uc = 0) ~id ~links ~starts ~src ~dst () =
  {
    Route.flow_id = id;
    use_case = uc;
    src_core = 0;
    dst_core = 1;
    src_switch = src;
    dst_switch = dst;
    bandwidth = 100.0;
    service = Route.Gt;
    links;
    slot_starts = starts;
  }

let test_route_hops_and_latency () =
  let r = mk_route ~id:0 ~links:[ 0; 1 ] ~starts:[ 0 ] ~src:0 ~dst:2 () in
  Alcotest.(check int) "hops" 2 (Route.hops r);
  check_float "bound" ((32.0 +. 2.0) *. 8.0) (Route.worst_case_latency_ns ~config:Config.default r)

let test_route_same_switch_latency () =
  let r = mk_route ~id:0 ~links:[] ~starts:[] ~src:0 ~dst:0 () in
  check_float "one slot" 8.0 (Route.worst_case_latency_ns ~config:Config.default r)

let test_turn_xy_routes_deadlock_free () =
  let m = Mesh.create ~width:4 ~height:4 in
  let routes = ref [] in
  let id = ref 0 in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      if src <> dst then begin
        routes :=
          mk_route ~id:!id ~links:(Mesh.xy_route m ~src ~dst) ~starts:[ 0 ] ~src ~dst ()
          :: !routes;
        incr id
      end
    done
  done;
  Alcotest.(check bool) "XY all-pairs deadlock free" true
    (Turn.is_deadlock_free ~links:(Mesh.link_count m) ~routes:!routes)

let test_turn_detects_cycle () =
  (* Fabricate a cyclic channel dependency: l0->l1, l1->l2, l2->l0. *)
  let routes =
    [
      mk_route ~id:0 ~links:[ 0; 1 ] ~starts:[] ~src:0 ~dst:0 ();
      mk_route ~id:1 ~links:[ 1; 2 ] ~starts:[] ~src:0 ~dst:0 ();
      mk_route ~id:2 ~links:[ 2; 0 ] ~starts:[] ~src:0 ~dst:0 ();
    ]
  in
  Alcotest.(check bool) "cycle found" false (Turn.is_deadlock_free ~links:3 ~routes);
  match Turn.find_cycle ~links:3 ~routes with
  | Some cycle -> Alcotest.(check bool) "cycle non-trivial" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected a cycle"

let test_turn_dependencies_dedup () =
  let routes =
    [
      mk_route ~id:0 ~links:[ 0; 1 ] ~starts:[] ~src:0 ~dst:0 ();
      mk_route ~id:1 ~links:[ 0; 1 ] ~starts:[] ~src:0 ~dst:0 ();
    ]
  in
  Alcotest.(check int) "single dependency" 1 (List.length (Turn.dependencies ~routes))

let test_turn_xy_legality () =
  let m = Mesh.create ~width:3 ~height:3 in
  let xy = mk_route ~id:0 ~links:(Mesh.xy_route m ~src:0 ~dst:8) ~starts:[] ~src:0 ~dst:8 () in
  Alcotest.(check bool) "xy is legal" true (Turn.xy_legal m xy);
  (* A YX route (first south, then east) is illegal. *)
  let s0 = Mesh.switch_at m ~x:0 ~y:0 in
  let s1 = Mesh.switch_at m ~x:0 ~y:1 in
  let s2 = Mesh.switch_at m ~x:1 ~y:1 in
  let yx =
    mk_route ~id:1
      ~links:
        [
          Option.get (Mesh.link_between m ~src:s0 ~dst:s1);
          Option.get (Mesh.link_between m ~src:s1 ~dst:s2);
        ]
      ~starts:[] ~src:s0 ~dst:s2 ()
  in
  Alcotest.(check bool) "yx is illegal" false (Turn.xy_legal m yx)

(* --- bitmask: next_set_from edge cases (PR 8 primitive) ------------------ *)

module Bitmask = Noc_arch.Bitmask

let test_bitmask_next_set_from_empty () =
  let m = Bitmask.create ~slots:32 ~full:false in
  Alcotest.(check (option int)) "from 0" None (Bitmask.next_set_from m 0);
  Alcotest.(check (option int)) "from mid" None (Bitmask.next_set_from m 17);
  Alcotest.(check (option int)) "from last" None (Bitmask.next_set_from m 31)

let test_bitmask_next_set_from_no_wrap () =
  let m = Bitmask.create ~slots:32 ~full:false in
  Bitmask.set m 2;
  (* At or below the bit: found.  Above it: no cyclic wrap — the wheel
     idiom is an explicit second probe from 0. *)
  Alcotest.(check (option int)) "from 0" (Some 2) (Bitmask.next_set_from m 0);
  Alcotest.(check (option int)) "inclusive at the bit" (Some 2) (Bitmask.next_set_from m 2);
  Alcotest.(check (option int)) "no wrap past the bit" None (Bitmask.next_set_from m 3);
  Alcotest.(check (option int)) "wheel: probe again from 0" (Some 2)
    (match Bitmask.next_set_from m 3 with
    | Some _ as hit -> hit
    | None -> Bitmask.next_set_from m 0)

let test_bitmask_next_set_from_bounds () =
  let m = Bitmask.create ~slots:32 ~full:true in
  Alcotest.(check (option int)) "full mask returns the probe" (Some 13)
    (Bitmask.next_set_from m 13);
  Alcotest.(check (option int)) "last index" (Some 31) (Bitmask.next_set_from m 31);
  (* Probing at or past the size is simply empty, not an error... *)
  Alcotest.(check (option int)) "at size" None (Bitmask.next_set_from m 32);
  Alcotest.(check (option int)) "past size" None (Bitmask.next_set_from m 1000);
  (* ...but a negative index is a caller bug. *)
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Bitmask.next_set_from: negative index") (fun () ->
      ignore (Bitmask.next_set_from m (-1)))

let test_bitmask_next_set_from_multiword () =
  (* 100 slots spans multiple 62-bit words: the scan must cross word
     boundaries in both the set and the empty stretches. *)
  let m = Bitmask.create ~slots:100 ~full:false in
  Bitmask.set m 70;
  Bitmask.set m 99;
  Alcotest.(check (option int)) "cross into second word" (Some 70) (Bitmask.next_set_from m 0);
  Alcotest.(check (option int)) "from word boundary" (Some 70) (Bitmask.next_set_from m 62);
  Alcotest.(check (option int)) "between the bits" (Some 99) (Bitmask.next_set_from m 71);
  Alcotest.(check (option int)) "final bit" (Some 99) (Bitmask.next_set_from m 99);
  Bitmask.clear m 70;
  Bitmask.clear m 99;
  Alcotest.(check (option int)) "cleared again" None (Bitmask.next_set_from m 0)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_tdma_reserved_starts_were_free ]

let () =
  Alcotest.run "noc_arch"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "capacity" `Quick test_config_capacity;
          Alcotest.test_case "slot duration" `Quick test_config_slot_duration;
          Alcotest.test_case "with_freq" `Quick test_config_with_freq;
          Alcotest.test_case "slots for bandwidth" `Quick test_config_slots_for_bandwidth;
          Alcotest.test_case "rejections" `Quick test_config_rejections;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "counts" `Quick test_mesh_counts;
          Alcotest.test_case "1x1" `Quick test_mesh_1x1;
          Alcotest.test_case "coord roundtrip" `Quick test_mesh_coord_roundtrip;
          Alcotest.test_case "links adjacent" `Quick test_mesh_link_endpoints_adjacent;
          Alcotest.test_case "link_between" `Quick test_mesh_link_between;
          Alcotest.test_case "directions distinct" `Quick test_mesh_both_directions_distinct;
          Alcotest.test_case "xy route" `Quick test_mesh_xy_route;
          Alcotest.test_case "xy route trivial" `Quick test_mesh_xy_route_same_switch;
          Alcotest.test_case "growth sequence" `Quick test_mesh_growth_sequence;
          Alcotest.test_case "growth monotone" `Quick test_mesh_growth_monotone;
          Alcotest.test_case "center" `Quick test_mesh_center;
          Alcotest.test_case "bad dims" `Quick test_mesh_rejects_bad_dims;
        ] );
      ( "torus",
        [
          Alcotest.test_case "link count" `Quick test_torus_link_count;
          Alcotest.test_case "no parallel links at dim 2" `Quick test_torus_small_dims_no_parallel_links;
          Alcotest.test_case "wrap neighbor" `Quick test_torus_wrap_neighbor;
          Alcotest.test_case "wrap-aware manhattan" `Quick test_torus_manhattan_shorter;
          Alcotest.test_case "xy route wraps" `Quick test_torus_xy_route_uses_wrap;
          Alcotest.test_case "all-pairs chains valid" `Quick test_torus_route_chain_valid;
        ] );
      ( "express",
        [
          Alcotest.test_case "adds links" `Quick test_express_adds_links;
          Alcotest.test_case "preserves grid ids" `Quick test_express_preserves_grid_link_ids;
          Alcotest.test_case "shortens paths" `Quick test_express_shortens_min_cost_path;
          Alcotest.test_case "rejections" `Quick test_express_rejections;
        ] );
      ( "slot_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_slot_table_lifecycle;
          Alcotest.test_case "modular indexing" `Quick test_slot_table_modular_indexing;
          Alcotest.test_case "double reserve" `Quick test_slot_table_double_reserve_rejected;
          Alcotest.test_case "release owner" `Quick test_slot_table_release_owner;
          Alcotest.test_case "free slots sorted" `Quick test_slot_table_free_slots_sorted;
          Alcotest.test_case "copy independent" `Quick test_slot_table_copy_independent;
          Alcotest.test_case "utilization" `Quick test_slot_table_utilization;
        ] );
      ( "tdma",
        [
          Alcotest.test_case "free starts" `Quick test_tdma_free_starts_empty_path_tables;
          Alcotest.test_case "alignment shifts" `Quick test_tdma_alignment_shifts;
          Alcotest.test_case "blocked downstream" `Quick test_tdma_start_blocked_by_downstream;
          Alcotest.test_case "find aligned" `Quick test_tdma_find_aligned_count;
          Alcotest.test_case "insufficient" `Quick test_tdma_find_aligned_insufficient;
          Alcotest.test_case "spread minimises gap" `Quick test_tdma_choose_spread_minimises_gap;
          Alcotest.test_case "reserve/release" `Quick test_tdma_reserve_release_roundtrip;
          Alcotest.test_case "gap single" `Quick test_tdma_max_start_gap_single;
          Alcotest.test_case "gap pair" `Quick test_tdma_max_start_gap_pair;
          Alcotest.test_case "latency bound" `Quick test_tdma_latency_bound;
          Alcotest.test_case "more slots, lower latency" `Quick test_tdma_more_slots_lower_latency;
          Alcotest.test_case "mismatched tables" `Quick test_tdma_mismatched_tables_rejected;
        ] );
      ( "service_curve",
        [
          Alcotest.test_case "of reservation" `Quick test_service_curve_of_reservation;
          Alcotest.test_case "delay bound" `Quick test_service_curve_delay_bound;
          Alcotest.test_case "backlog bound" `Quick test_service_curve_backlog_bound;
          Alcotest.test_case "rejects overload" `Quick test_service_curve_rejects_overload;
          Alcotest.test_case "of route" `Quick test_service_curve_of_route;
          Alcotest.test_case "on/off burstiness" `Quick test_on_off_burstiness;
        ] );
      ( "ni_buffer",
        [
          Alcotest.test_case "single slot" `Quick test_ni_buffer_single_slot;
          Alcotest.test_case "spread slots" `Quick test_ni_buffer_spread_slots_need_less;
          Alcotest.test_case "monotone in bandwidth" `Quick test_ni_buffer_grows_with_bandwidth;
          Alcotest.test_case "rejections" `Quick test_ni_buffer_rejections;
          Alcotest.test_case "per-core totals" `Quick test_ni_buffer_per_core_totals;
        ] );
      ( "route_turns",
        [
          Alcotest.test_case "hops and latency" `Quick test_route_hops_and_latency;
          Alcotest.test_case "same-switch latency" `Quick test_route_same_switch_latency;
          Alcotest.test_case "xy deadlock free" `Quick test_turn_xy_routes_deadlock_free;
          Alcotest.test_case "detects cycle" `Quick test_turn_detects_cycle;
          Alcotest.test_case "dependency dedup" `Quick test_turn_dependencies_dedup;
          Alcotest.test_case "xy legality" `Quick test_turn_xy_legality;
        ] );
      ( "bitmask",
        [
          Alcotest.test_case "next_set_from empty" `Quick test_bitmask_next_set_from_empty;
          Alcotest.test_case "next_set_from no wrap" `Quick test_bitmask_next_set_from_no_wrap;
          Alcotest.test_case "next_set_from bounds" `Quick test_bitmask_next_set_from_bounds;
          Alcotest.test_case "next_set_from multiword" `Quick
            test_bitmask_next_set_from_multiword;
        ] );
      ("properties", qcheck_cases);
    ]
