(* Tests for Noc_sim: the slot-accurate TDMA simulator must agree with
   the analytic guarantees of the reservation. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Mapping = Noc_core.Mapping
module Sim = Noc_sim.Simulator

let uc ~id ~cores flows = U.create ~id ~name:(Printf.sprintf "u%d" id) ~cores flows

let mk_route ?(service = Route.Gt) ~id ~bw ~links ~starts () =
  {
    Route.flow_id = id;
    use_case = 0;
    src_core = 0;
    dst_core = 1;
    src_switch = 0;
    dst_switch = 1;
    bandwidth = bw;
    service;
    links;
    slot_starts = starts;
  }


let test_single_connection_delivers_contract () =
  (* 62.5 MB/s = exactly one slot of the default config *)
  let r = mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ r ] ~duration_slots:3200 in
  (match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "delivered ~ offered" true
      (c.Sim.delivered_mbps >= 62.5 *. 0.98);
    Alcotest.(check bool) "latency bounded" true (c.Sim.max_latency_ns <= c.Sim.bound_ns +. res.Sim.slot_ns);
    Alcotest.(check bool) "backlog bounded" true (c.Sim.final_backlog_bytes < 100.0)
  | _ -> Alcotest.fail "one connection expected");
  Alcotest.(check int) "no collisions" 0 res.Sim.collisions;
  Alcotest.(check bool) "within contract" true (Sim.within_contract res)

let test_overbooked_connection_builds_backlog () =
  (* offering 200 MB/s on a single reserved slot (62.5) must backlog *)
  let r = mk_route ~id:0 ~bw:200.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ r ] ~duration_slots:3200 in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "undelivered" true (c.Sim.delivered_mbps < 70.0);
    Alcotest.(check bool) "backlog grows" true (c.Sim.final_backlog_bytes > 1000.0);
    Alcotest.(check bool) "contract violated" false (Sim.within_contract res)
  | _ -> Alcotest.fail "one connection expected"

let test_collision_detected () =
  (* two connections claiming the same (link, slot) *)
  let a = mk_route ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[ 3 ] () in
  let b = mk_route ~id:1 ~bw:10.0 ~links:[ 0 ] ~starts:[ 3 ] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ a; b ] ~duration_slots:64 in
  Alcotest.(check bool) "collision found" true (res.Sim.collisions > 0);
  Alcotest.(check bool) "contract violated" false (Sim.within_contract res)

let test_shifted_slots_no_collision () =
  (* Aethereal shift: second hop uses start+1, so a connection starting
     at 0 on link0/link1 and one starting at 0 on link1 only collide if
     the shifted slot matches. start 1 on link1 collides with hop-2 slot
     of the first connection. *)
  let a = mk_route ~id:0 ~bw:10.0 ~links:[ 0; 1 ] ~starts:[ 0 ] () in
  let b = mk_route ~id:1 ~bw:10.0 ~links:[ 1 ] ~starts:[ 1 ] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ a; b ] ~duration_slots:64 in
  Alcotest.(check bool) "collision on shifted slot" true (res.Sim.collisions > 0);
  let c = mk_route ~id:2 ~bw:10.0 ~links:[ 1 ] ~starts:[ 2 ] () in
  let res2 = Sim.simulate ~config:Config.default ~routes:[ a; c ] ~duration_slots:64 in
  Alcotest.(check int) "clear of the shift" 0 res2.Sim.collisions

let test_same_switch_route_low_latency () =
  let r = mk_route ~id:0 ~bw:100.0 ~links:[] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ r ] ~duration_slots:320 in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "delivers" true (c.Sim.delivered_mbps >= 98.0);
    Alcotest.(check bool) "latency ~ one slot" true (c.Sim.max_latency_ns <= 2.0 *. res.Sim.slot_ns)
  | _ -> Alcotest.fail "one connection expected"

let test_more_starts_lower_latency () =
  let one = mk_route ~id:0 ~bw:50.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  let four = mk_route ~id:1 ~bw:50.0 ~links:[ 1 ] ~starts:[ 0; 8; 16; 24 ] () in
  let res =
    Sim.simulate ~config:Config.default ~routes:[ one; four ] ~duration_slots:3200
  in
  match res.Sim.conns with
  | [ a; b ] ->
    Alcotest.(check bool) "spread slots cut worst latency" true
      (b.Sim.max_latency_ns < a.Sim.max_latency_ns)
  | _ -> Alcotest.fail "two connections expected"

let test_rejects_bad_duration () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Simulator.simulate: non-positive duration") (fun () ->
      ignore (Sim.simulate ~config:Config.default ~routes:[] ~duration_slots:0))

(* End-to-end: every use-case configuration produced by the mapper
   honours its contracts in simulation. *)
let test_mapped_design_simulates_within_contract () =
  let ucs =
    [
      uc ~id:0 ~cores:6
        [
          Flow.v ~src:0 ~dst:1 400.0;
          Flow.v ~src:2 ~dst:3 ~latency_ns:300.0 20.0;
          Flow.v ~src:4 ~dst:5 125.0;
          Flow.v ~src:1 ~dst:4 60.0;
        ];
      uc ~id:1 ~cores:6 [ Flow.v ~src:0 ~dst:5 300.0; Flow.v ~src:3 ~dst:2 90.0 ];
    ]
  in
  let config = { Config.default with nis_per_switch = 2 } in
  match Mapping.map_design ~config ~groups:[ [ 0 ]; [ 1 ] ] ucs with
  | Error f -> Alcotest.fail (Format.asprintf "%a" Mapping.pp_failure f)
  | Ok m ->
    List.iter
      (fun u ->
        let routes = Mapping.routes_of_use_case m u.U.id in
        let res = Sim.simulate ~config ~routes ~duration_slots:6400 in
        Alcotest.(check int) (Printf.sprintf "uc %d no collisions" u.U.id) 0 res.Sim.collisions;
        Alcotest.(check bool)
          (Printf.sprintf "uc %d within contract" u.U.id)
          true (Sim.within_contract res))
      ucs

(* --- bursty sources ---------------------------------------------------------- *)

let test_bursty_gt_still_delivers_mean () =
  (* 125 MB/s mean arriving in bursts (duty 25 %): the 2-slot GT
     reservation still drains the mean rate; backlog stays bounded. *)
  let r = mk_route ~id:0 ~bw:125.0 ~links:[ 0 ] ~starts:[ 0; 16 ] () in
  let res =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots = 64; duty = 0.25 }) ]
      ~config:Config.default ~routes:[ r ] ~duration_slots:6400
  in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "mean delivered" true (c.Sim.delivered_mbps >= 125.0 *. 0.95);
    (* bounded by one burst cycle's worth of traffic *)
    let cycle_bytes = 125.0 /. 1000.0 *. res.Sim.slot_ns *. 64.0 in
    Alcotest.(check bool) "backlog bounded by a burst" true
      (c.Sim.max_backlog_bytes <= cycle_bytes +. 64.0)
  | _ -> Alcotest.fail "one connection expected"

let test_bursty_worse_latency_than_fluid () =
  let r = mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] () in
  let fluid = Sim.simulate ~config:Config.default ~routes:[ r ] ~duration_slots:6400 in
  let bursty =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots = 128; duty = 0.125 }) ]
      ~config:Config.default ~routes:[ r ] ~duration_slots:6400
  in
  match (fluid.Sim.conns, bursty.Sim.conns) with
  | [ f ], [ b ] ->
    Alcotest.(check bool) "bursts queue behind the schedule" true
      (b.Sim.max_latency_ns > f.Sim.max_latency_ns);
    Alcotest.(check bool) "mean rate still served" true
      (b.Sim.delivered_mbps >= 62.5 *. 0.95)
  | _ -> Alcotest.fail "one connection each expected"

let test_bursty_mean_preserved () =
  (* total arrivals over full cycles equal the fluid amount *)
  let r = mk_route ~id:0 ~bw:40.0 ~links:[ 0 ] ~starts:(List.init 32 (fun i -> i)) () in
  let res =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots = 32; duty = 0.5 }) ]
      ~config:Config.default ~routes:[ r ] ~duration_slots:3200
  in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "delivered equals mean" true
      (Float.abs (c.Sim.delivered_mbps -. 40.0) < 2.0)
  | _ -> Alcotest.fail "one connection expected"

let test_bursty_rejects_bad_params () =
  let r = mk_route ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  let bad source =
    try
      ignore
        (Sim.simulate_sources ~sources:[ (0, source) ] ~config:Config.default ~routes:[ r ]
           ~duration_slots:10);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero period" true (bad (Sim.On_off { period_slots = 0; duty = 0.5 }));
  Alcotest.(check bool) "bad duty" true (bad (Sim.On_off { period_slots = 8; duty = 1.5 }))

let test_bursty_latency_within_service_curve_bound () =
  (* Network-calculus cross-validation: measured bursty latency must
     stay within the LR delay bound computed from the reservation and
     the source's token-bucket burstiness. *)
  let starts = [ 0; 16 ] in
  let bw = 100.0 in
  let r = mk_route ~id:0 ~bw ~links:[ 0; 1 ] ~starts () in
  let period_slots = 64 in
  let duty = 0.25 in
  let res =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots; duty }) ]
      ~config:Config.default ~routes:[ r ] ~duration_slots:12800
  in
  let sc = Noc_arch.Service_curve.of_reservation ~config:Config.default ~starts ~hops:2 in
  let period_ns = float_of_int period_slots *. res.Sim.slot_ns in
  let sigma = Noc_arch.Service_curve.on_off_burstiness ~mean_mbps:bw ~period_ns ~duty in
  let bound = Noc_arch.Service_curve.delay_bound_ns sc ~burst_bytes:sigma ~rate_mbps:bw in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool)
      (Printf.sprintf "measured %.0f ns <= bound %.0f ns" c.Sim.max_latency_ns bound)
      true
      (c.Sim.max_latency_ns <= bound +. res.Sim.slot_ns)
  | _ -> Alcotest.fail "one connection expected"

let test_bursty_backlog_within_service_curve_bound () =
  let starts = [ 0; 8; 16; 24 ] in
  let bw = 200.0 in
  let r = mk_route ~id:0 ~bw ~links:[ 0 ] ~starts () in
  let period_slots = 32 in
  let duty = 0.5 in
  let res =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots; duty }) ]
      ~config:Config.default ~routes:[ r ] ~duration_slots:6400
  in
  let sc = Noc_arch.Service_curve.of_reservation ~config:Config.default ~starts ~hops:1 in
  let period_ns = float_of_int period_slots *. res.Sim.slot_ns in
  let sigma = Noc_arch.Service_curve.on_off_burstiness ~mean_mbps:bw ~period_ns ~duty in
  let bound = Noc_arch.Service_curve.backlog_bound_bytes sc ~burst_bytes:sigma ~rate_mbps:bw in
  match res.Sim.conns with
  | [ c ] ->
    (* one slot arrival of slack on the discrete boundary *)
    let slack = bw /. 1000.0 *. res.Sim.slot_ns in
    Alcotest.(check bool)
      (Printf.sprintf "peak %.0f B <= bound %.0f B" c.Sim.max_backlog_bytes bound)
      true
      (c.Sim.max_backlog_bytes <= bound +. slack)
  | _ -> Alcotest.fail "one connection expected"

(* --- trace replay ------------------------------------------------------------ *)

module Trace = Noc_sim.Trace

let test_trace_cbr_shape () =
  let t = Trace.cbr ~rate_mbps:100.0 ~packet_bytes:64.0 ~duration_ns:6400.0 in
  Alcotest.(check bool) "valid" true (Trace.validate t = Ok ());
  (* 100 MB/s = 0.1 B/ns; 64 B every 640 ns over 6400 ns = 10 packets *)
  Alcotest.(check int) "packet count" 10 (List.length t);
  Alcotest.(check (float 1.0)) "mean rate" 100.0 (Trace.mean_rate_mbps t ~duration_ns:6400.0)

let test_trace_video_gop_shape () =
  let rng = Noc_util.Rng.create ~seed:5 in
  let t =
    Trace.video_gop ~rng ~mean_mbps:200.0 ~frame_period_ns:1000.0 ~gop_length:6
      ~i_frame_ratio:4.0 ~duration_ns:60000.0
  in
  Alcotest.(check bool) "valid" true (Trace.validate t = Ok ());
  Alcotest.(check int) "60 frames" 60 (List.length t);
  (* mean within jitter of the target *)
  let mean = Trace.mean_rate_mbps t ~duration_ns:60000.0 in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f near 200" mean) true
    (Float.abs (mean -. 200.0) < 20.0);
  (* I frames are markedly larger than P frames *)
  let sizes = List.map (fun e -> e.Trace.bytes) t in
  let imax = List.fold_left Float.max 0.0 sizes in
  let pmin = List.fold_left Float.min infinity sizes in
  Alcotest.(check bool) "I >> P" true (imax > 3.0 *. pmin)

let test_trace_validate_rejects () =
  let bad = [ { Trace.at_ns = 10.0; bytes = 1.0 }; { Trace.at_ns = 5.0; bytes = 1.0 } ] in
  Alcotest.(check bool) "out of order" true (Result.is_error (Trace.validate bad));
  let bad2 = [ { Trace.at_ns = 1.0; bytes = 0.0 } ] in
  Alcotest.(check bool) "zero bytes" true (Result.is_error (Trace.validate bad2))

let test_trace_replay_through_gt () =
  (* CBR trace at exactly the granted rate: delivered matches, latency
     within the analytic bound. *)
  let r = mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] () in
  let duration = 6400 in
  let horizon = float_of_int duration *. 8.0 in
  let trace = Trace.cbr ~rate_mbps:62.5 ~packet_bytes:16.0 ~duration_ns:horizon in
  let res =
    Sim.simulate_sources ~sources:[ (0, Sim.Replay trace) ] ~config:Config.default
      ~routes:[ r ] ~duration_slots:duration
  in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "delivered ~ offered" true (c.Sim.delivered_mbps >= 62.5 *. 0.95);
    Alcotest.(check bool) "latency bounded" true
      (c.Sim.max_latency_ns <= c.Sim.bound_ns +. (2.0 *. res.Sim.slot_ns))
  | _ -> Alcotest.fail "one connection expected"

let test_trace_replay_video_over_provisioned_gt () =
  (* video GOP trace with mean 100 MB/s on a 187.5 MB/s reservation:
     bursts drain; everything is delivered. *)
  let rng = Noc_util.Rng.create ~seed:9 in
  let r = mk_route ~id:0 ~bw:100.0 ~links:[ 0 ] ~starts:[ 0; 11; 22 ] () in
  let duration = 12800 in
  let horizon = float_of_int duration *. 8.0 in
  let trace =
    Trace.video_gop ~rng ~mean_mbps:100.0 ~frame_period_ns:2000.0 ~gop_length:8
      ~i_frame_ratio:5.0 ~duration_ns:(horizon *. 0.9)
  in
  let res =
    Sim.simulate_sources ~sources:[ (0, Sim.Replay trace) ] ~config:Config.default
      ~routes:[ r ] ~duration_slots:duration
  in
  match res.Sim.conns with
  | [ c ] ->
    let offered = Trace.total_bytes trace in
    Alcotest.(check bool) "virtually all delivered" true
      (c.Sim.final_backlog_bytes < 0.02 *. offered)
  | _ -> Alcotest.fail "one connection expected"

let test_trace_replay_rejects_invalid () =
  let r = mk_route ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  let bad = [ { Trace.at_ns = 10.0; bytes = 1.0 }; { Trace.at_ns = 5.0; bytes = 1.0 } ] in
  Alcotest.(check bool) "invalid trace rejected" true
    (try
       ignore
         (Sim.simulate_sources ~sources:[ (0, Sim.Replay bad) ] ~config:Config.default
            ~routes:[ r ] ~duration_slots:8);
       false
     with Invalid_argument _ -> true)

(* --- best effort ----------------------------------------------------------- *)

let test_be_gets_idle_network () =
  (* With no GT traffic at all, a modest BE stream sails through. *)
  let be = mk_route ~service:Route.Be ~id:0 ~bw:100.0 ~links:[ 0; 1 ] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ be ] ~duration_slots:3200 in
  match res.Sim.conns with
  | [ c ] ->
    Alcotest.(check bool) "BE delivers on idle NoC" true (c.Sim.delivered_mbps >= 95.0);
    Alcotest.(check bool) "bound is infinity" true (c.Sim.bound_ns = infinity);
    Alcotest.(check bool) "contract trivially holds" true (Sim.within_contract res)
  | _ -> Alcotest.fail "one connection expected"

let test_be_starved_by_saturated_gt () =
  (* GT owning every slot on the shared link leaves BE nothing. *)
  let gt =
    mk_route ~id:0 ~bw:2000.0 ~links:[ 0 ] ~starts:(List.init 32 (fun i -> i)) ()
  in
  let be = mk_route ~service:Route.Be ~id:1 ~bw:50.0 ~links:[ 0 ] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ gt; be ] ~duration_slots:640 in
  (match List.find_opt (fun c -> c.Sim.service = Route.Be) res.Sim.conns with
  | Some c ->
    Alcotest.(check (float 1e-9)) "BE fully starved" 0.0 c.Sim.delivered_mbps;
    Alcotest.(check bool) "BE backlog grows" true (c.Sim.final_backlog_bytes > 0.0)
  | None -> Alcotest.fail "BE connection missing");
  (* ...while the GT contract is untouched. *)
  Alcotest.(check bool) "GT unaffected" true (Sim.within_contract res)

let test_be_shares_leftover_fairly () =
  (* Two identical BE streams on one otherwise idle link split the
     capacity roughly evenly (round-robin arbitration). *)
  let a = mk_route ~service:Route.Be ~id:0 ~bw:2000.0 ~links:[ 0 ] ~starts:[] () in
  let b = mk_route ~service:Route.Be ~id:1 ~bw:2000.0 ~links:[ 0 ] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ a; b ] ~duration_slots:3200 in
  match res.Sim.conns with
  | [ ca; cb ] ->
    let total = ca.Sim.delivered_mbps +. cb.Sim.delivered_mbps in
    Alcotest.(check bool) "link fully used" true (total >= 2000.0 *. 0.95);
    Alcotest.(check bool) "fair split" true
      (Float.abs (ca.Sim.delivered_mbps -. cb.Sim.delivered_mbps) < 0.1 *. total)
  | _ -> Alcotest.fail "two connections expected"

let test_be_throughput_is_complement_of_gt () =
  (* GT takes 8 of 32 slots; BE can get at most 24/32 of the link. *)
  let gt = mk_route ~id:0 ~bw:500.0 ~links:[ 0 ] ~starts:[ 0; 4; 8; 12; 16; 20; 24; 28 ] () in
  let be = mk_route ~service:Route.Be ~id:1 ~bw:2000.0 ~links:[ 0 ] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ gt; be ] ~duration_slots:6400 in
  (match List.find_opt (fun c -> c.Sim.service = Route.Be) res.Sim.conns with
  | Some c ->
    let leftover = 2000.0 *. 24.0 /. 32.0 in
    Alcotest.(check bool) "BE close to leftover" true
      (c.Sim.delivered_mbps >= leftover *. 0.95 && c.Sim.delivered_mbps <= leftover *. 1.01)
  | None -> Alcotest.fail "BE connection missing");
  Alcotest.(check bool) "GT in contract" true (Sim.within_contract res)

let test_be_multihop_latency_grows () =
  let short = mk_route ~service:Route.Be ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[] () in
  let long = mk_route ~service:Route.Be ~id:1 ~bw:10.0 ~links:[ 1; 2; 3; 4 ] ~starts:[] () in
  let res = Sim.simulate ~config:Config.default ~routes:[ short; long ] ~duration_slots:3200 in
  match res.Sim.conns with
  | [ s; l ] ->
    Alcotest.(check bool) "longer path, more latency" true
      (l.Sim.mean_latency_ns > s.Sim.mean_latency_ns)
  | _ -> Alcotest.fail "two connections expected"

let test_backlog_within_buffer_bound () =
  (* The analytic NI buffer size must cover the simulator's measured
     peak source backlog, for a flow offered exactly at contract. *)
  let routes =
    [
      mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] ();
      mk_route ~id:1 ~bw:125.0 ~links:[ 1 ] ~starts:[ 5; 21 ] ();
      mk_route ~id:2 ~bw:250.0 ~links:[ 2 ] ~starts:[ 1; 9 ; 17; 25 ] ();
    ]
  in
  let res = Sim.simulate ~config:Config.default ~routes ~duration_slots:6400 in
  List.iter2
    (fun r c ->
      let bound =
        Noc_arch.Ni_buffer.required_bytes ~config:Config.default
          ~starts:r.Route.slot_starts ~bw:r.Route.bandwidth
      in
      Alcotest.(check bool)
        (Printf.sprintf "conn %d: peak %.1f <= bound %.1f" c.Sim.flow_id
           c.Sim.max_backlog_bytes bound)
        true
        (c.Sim.max_backlog_bytes <= bound +. 1e-6))
    routes res.Sim.conns

(* --- core equivalence -------------------------------------------------------- *)

(* Byte identity, not tolerance: Marshal distinguishes every float bit
   pattern (0.0 vs -0.0, NaN payloads), which [=] and [Float.equal] do
   not. *)
let bytes_of_result (r : Sim.result) = Marshal.to_string r []

let check_cores_identical ~sources ~routes ~duration_slots name =
  let run core =
    Sim.simulate_with ~core ~sources ~config:Config.default ~routes ~duration_slots
  in
  Alcotest.(check bool) name true
    (String.equal (bytes_of_result (run `Event)) (bytes_of_result (run `Reference)))

let test_cores_agree_all_idle () =
  (* An empty replay trace never injects: no slot mutates state over
     the whole horizon, so the event core may execute almost nothing. *)
  let r = mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] () in
  check_cores_identical ~sources:[ (0, Sim.Replay []) ] ~routes:[ r ]
    ~duration_slots:5000 "all-idle horizon"

let test_cores_agree_replay_past_horizon () =
  (* Every trace event lands after the simulated window: the injection
     slot the event core schedules must not leak into the horizon. *)
  let r = mk_route ~id:0 ~bw:62.5 ~links:[ 0 ] ~starts:[ 0 ] () in
  let trace = [ { Trace.at_ns = 1e9; bytes = 64.0 } ] in
  check_cores_identical ~sources:[ (0, Sim.Replay trace) ] ~routes:[ r ]
    ~duration_slots:100 "replay beyond horizon";
  let res =
    Sim.simulate_sources ~sources:[ (0, Sim.Replay trace) ] ~config:Config.default
      ~routes:[ r ] ~duration_slots:100
  in
  match res.Sim.conns with
  | [ c ] -> Alcotest.(check (float 1e-9)) "nothing delivered" 0.0 c.Sim.delivered_mbps
  | _ -> Alcotest.fail "one connection expected"

let test_cores_agree_wheel_wrap () =
  (* Burst period longer than the slot table and duration many times
     both: phase edges must survive wheel revolutions via the one-shot
     heap, not the periodic ring. *)
  let a = mk_route ~id:0 ~bw:125.0 ~links:[ 0 ] ~starts:[ 0; 16 ] () in
  let b = mk_route ~service:Route.Be ~id:1 ~bw:300.0 ~links:[ 0; 1 ] ~starts:[] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 48; duty = 0.25 }) ]
    ~routes:[ a; b ] ~duration_slots:3200 "wrap past the period"

let test_cores_agree_mixed_traffic () =
  (* All four source shapes at once, sharing links, so GT service, BE
     arbitration and replay injection interleave in every slot class. *)
  let gt_fluid = mk_route ~id:0 ~bw:100.0 ~links:[ 0; 1 ] ~starts:[ 0; 8 ] () in
  let gt_burst = mk_route ~id:1 ~bw:125.0 ~links:[ 1 ] ~starts:[ 4; 20 ] () in
  let gt_replay = mk_route ~id:2 ~bw:62.5 ~links:[ 2 ] ~starts:[ 2 ] () in
  let local = mk_route ~id:3 ~bw:50.0 ~links:[] ~starts:[] () in
  let be = mk_route ~service:Route.Be ~id:4 ~bw:400.0 ~links:[ 0; 2 ] ~starts:[] () in
  let trace = Trace.cbr ~rate_mbps:80.0 ~packet_bytes:48.0 ~duration_ns:20000.0 in
  check_cores_identical
    ~sources:
      [
        (1, Sim.On_off { period_slots = 64; duty = 0.125 });
        (2, Sim.Replay trace);
      ]
    ~routes:[ gt_fluid; gt_burst; gt_replay; local; be ]
    ~duration_slots:6400 "mixed GT/BE/replay"

let test_rejects_unknown_flow_source () =
  (* A typo'd flow id used to be silently ignored (the source list was
     consulted with assoc_opt); now it is rejected up front. *)
  let r = mk_route ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Simulator: source for unknown flow id 7") (fun () ->
      ignore
        (Sim.simulate_sources ~sources:[ (7, Sim.Fluid) ] ~config:Config.default
           ~routes:[ r ] ~duration_slots:8))

let test_rejects_duplicate_flow_source () =
  (* Two sources for one flow id: the first entry used to win silently;
     the indexed source table rejects the list up front instead. *)
  let r = mk_route ~id:0 ~bw:10.0 ~links:[ 0 ] ~starts:[ 0 ] () in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Simulator: two sources for flow id 0") (fun () ->
      ignore
        (Sim.simulate_sources
           ~sources:[ (0, Sim.Fluid); (0, Sim.On_off { period_slots = 8; duty = 0.5 }) ]
           ~config:Config.default ~routes:[ r ] ~duration_slots:8))

(* Edge cases of the GT pass, which runs each GT connection with a
   fluid or on/off source on its own: burst phases, idle jumps and the
   implicit queue must reproduce the tick loop bit for bit. *)

let test_gt_alone_full_duty () =
  (* duty 1.0: every slot is ON, the pass never jumps *)
  let r = mk_route ~id:0 ~bw:100.0 ~links:[ 0; 1 ] ~starts:[ 3; 19 ] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 16; duty = 1.0 }) ]
    ~routes:[ r ] ~duration_slots:3200 "duty 1.0"

let test_gt_alone_period_one () =
  (* a one-slot cycle is ON every slot whatever the duty *)
  let r = mk_route ~id:0 ~bw:80.0 ~links:[ 0 ] ~starts:[ 7 ] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 1; duty = 0.3 }) ]
    ~routes:[ r ] ~duration_slots:1000 "period_slots = 1"

let test_gt_alone_period_past_horizon () =
  (* one burst, then an OFF phase that outlasts the horizon: the jump
     to the next ON slot lands past the end *)
  let r = mk_route ~id:0 ~bw:40.0 ~links:[ 0 ] ~starts:[ 0; 16 ] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 5000; duty = 0.1 }) ]
    ~routes:[ r ] ~duration_slots:3200 "period longer than the horizon";
  (* the largest period: its ON length must not overflow to negative *)
  let be = mk_route ~service:Route.Be ~id:1 ~bw:40.0 ~links:[ 1 ] ~starts:[] () in
  check_cores_identical
    ~sources:
      [
        (0, Sim.On_off { period_slots = max_int; duty = 1.0 });
        (1, Sim.On_off { period_slots = max_int; duty = 1.0 });
      ]
    ~routes:[ r; be ] ~duration_slots:500 "period max_int"

let test_gt_alone_horizon_mid_burst () =
  (* the last cycle is cut inside its ON phase *)
  let r = mk_route ~id:0 ~bw:125.0 ~links:[ 0; 1 ] ~starts:[ 2; 10; 18; 26 ] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 64; duty = 0.5 }) ]
    ~routes:[ r ] ~duration_slots:((64 * 10) + 20) "horizon ends mid-burst"

let test_gt_alone_overbooked () =
  (* far more offered than one reserved start carries: the queue never
     drains, so OFF phases jump between reserved starts *)
  let routes =
    [
      mk_route ~id:0 ~bw:500.0 ~links:[ 0 ] ~starts:[ 5 ] ();
      mk_route ~id:1 ~bw:300.0 ~links:[ 1 ] ~starts:[ 0 ] ();
    ]
  in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 40; duty = 0.25 }) ]
    ~routes ~duration_slots:6400 "overbooked, never drains";
  let res =
    Sim.simulate_sources
      ~sources:[ (0, Sim.On_off { period_slots = 40; duty = 0.25 }) ]
      ~config:Config.default ~routes ~duration_slots:6400
  in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "conn %d backlogged at the end" c.Sim.flow_id)
        true
        (c.Sim.final_backlog_bytes > 1000.0))
    res.Sim.conns

let test_gt_alone_same_switch () =
  (* a same-switch GT route starts on every slot *)
  let routes =
    [
      mk_route ~id:0 ~bw:150.0 ~links:[] ~starts:[] ();
      mk_route ~id:1 ~bw:90.0 ~links:[] ~starts:[] ();
    ]
  in
  check_cores_identical
    ~sources:[ (1, Sim.On_off { period_slots = 24; duty = 0.2 }) ]
    ~routes ~duration_slots:2000 "same-switch GT"

let test_gt_alone_shares_link_with_be () =
  (* GT (run alone) and BE (on the calendar) on the same links: BE
     must still see exactly the slots GT owns as taken *)
  let gt_burst = mk_route ~id:0 ~bw:125.0 ~links:[ 0; 1 ] ~starts:[ 0; 8 ] () in
  let gt_fluid = mk_route ~id:1 ~bw:62.5 ~links:[ 1 ] ~starts:[ 20 ] () in
  let be = mk_route ~service:Route.Be ~id:2 ~bw:700.0 ~links:[ 0; 1 ] ~starts:[] () in
  check_cores_identical
    ~sources:[ (0, Sim.On_off { period_slots = 96; duty = 0.125 }) ]
    ~routes:[ gt_burst; gt_fluid; be ] ~duration_slots:6400 "GT and BE share links"

let prop_cores_byte_identical =
  QCheck.Test.make ~name:"event core byte-identical to reference tick loop" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Noc_util.Rng.create ~seed in
      let n = Noc_util.Rng.int_in rng 1 5 in
      let duration = Noc_util.Rng.int_in rng 1 400 in
      let routes_and_sources =
        List.init n (fun id ->
            let gt = Noc_util.Rng.chance rng 0.7 in
            let hops = Noc_util.Rng.int_in rng 0 3 in
            (* overlapping links across routes exercise GT/BE contention
               and round-robin arbitration *)
            let links = List.init hops (fun h -> ((id * 4) + h) mod 5) in
            (* a GT route over links needs at least one reserved start
               (the analytic latency bound is undefined otherwise) *)
            let k = Noc_util.Rng.int_in rng (if gt && hops > 0 then 1 else 0) 4 in
            let starts = Noc_util.Rng.sample_without_replacement rng k 32 in
            let bw = Noc_util.Rng.float_in rng 5.0 400.0 in
            let service = if gt then Route.Gt else Route.Be in
            let r = mk_route ~service ~id ~bw ~links ~starts:(if gt then starts else []) () in
            let source =
              match Noc_util.Rng.int rng 3 with
              | 0 -> Sim.Fluid
              | 1 ->
                Sim.On_off
                  {
                    period_slots = Noc_util.Rng.int_in rng 1 100;
                    duty = Noc_util.Rng.float_in rng 0.05 1.0;
                  }
              | _ ->
                let rate = Noc_util.Rng.float_in rng 10.0 200.0 in
                let pkt = Noc_util.Rng.float_in rng 8.0 128.0 in
                let horizon = Noc_util.Rng.float_in rng 100.0 5000.0 in
                Sim.Replay (Trace.cbr ~rate_mbps:rate ~packet_bytes:pkt ~duration_ns:horizon)
            in
            (r, (id, source)))
      in
      let routes = List.map fst routes_and_sources in
      let sources = List.map snd routes_and_sources in
      let run core =
        Sim.simulate_with ~core ~sources ~config:Config.default ~routes
          ~duration_slots:duration
      in
      String.equal (bytes_of_result (run `Event)) (bytes_of_result (run `Reference)))

(* Long horizons on mapped designs, half the GT connections on/off as
   in the sweep: the GT pass and the tick loop agree over thousands of
   slots and many burst cycles.  Half the cases replay the design at a
   frequency whose slot duration is not a whole number of ns, so
   instants and latencies round and a reordered float operation shows. *)
let prop_cores_identical_long_horizon =
  QCheck.Test.make ~name:"cores byte-identical on mapped designs over long horizons" ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Noc_util.Rng.create ~seed in
      let params =
        { Noc_benchkit.Synthetic.spread_params with cores = 8; flows_lo = 6; flows_hi = 14 }
      in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:2 in
      let duration_slots = Noc_util.Rng.int_in rng 1600 6400 in
      let period_slots = Noc_util.Rng.int_in rng 8 300 in
      let duty = Noc_util.Rng.float_in rng 0.05 1.0 in
      let phase = Noc_util.Rng.int rng 2 in
      let freq_mhz = [| None; Some 333.0; Some 217.0 |].(Noc_util.Rng.int rng 3) in
      match Mapping.map_design ~groups:[ [ 0 ]; [ 1 ] ] ucs with
      | Error _ -> QCheck.assume_fail ()
      | Ok m ->
        let config =
          match freq_mhz with
          | None -> m.Mapping.config
          | Some f -> Config.with_freq m.Mapping.config f
        in
        List.for_all
          (fun u ->
            let routes = Mapping.routes_of_use_case m u.U.id in
            let sources =
              List.filter_map
                (fun r ->
                  if r.Route.service = Route.Gt && (r.Route.flow_id + phase) mod 2 = 0 then
                    Some (r.Route.flow_id, Sim.On_off { period_slots; duty })
                  else None)
                routes
            in
            let run core =
              Sim.simulate_with ~core ~sources ~config ~routes ~duration_slots
            in
            String.equal (bytes_of_result (run `Event)) (bytes_of_result (run `Reference)))
          ucs)

let prop_backlog_bound_holds =
  QCheck.Test.make ~name:"NI buffer bound covers simulated peak backlog" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 31))
    (fun (k, first) ->
      (* k evenly spread starts; bandwidth exactly the granted rate *)
      let starts = List.init k (fun i -> (first + (i * 32 / k)) mod 32) |> List.sort_uniq compare in
      let bw = float_of_int (List.length starts) *. 62.5 in
      let r = mk_route ~id:0 ~bw ~links:[ 0 ] ~starts () in
      let res = Sim.simulate ~config:Config.default ~routes:[ r ] ~duration_slots:3200 in
      let bound =
        Noc_arch.Ni_buffer.required_bytes ~config:Config.default ~starts ~bw
      in
      match res.Sim.conns with
      | [ c ] -> c.Sim.max_backlog_bytes <= bound +. 1e-6
      | _ -> false)

let prop_random_designs_simulate_cleanly =
  QCheck.Test.make ~name:"mapped configurations honour contracts in simulation" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let params =
        { Noc_benchkit.Synthetic.spread_params with cores = 8; flows_lo = 6; flows_hi = 14 }
      in
      let ucs = Noc_benchkit.Synthetic.generate ~seed ~params ~use_cases:2 in
      match Mapping.map_design ~groups:[ [ 0 ]; [ 1 ] ] ucs with
      | Error _ -> false
      | Ok m ->
        List.for_all
          (fun u ->
            let routes = Mapping.routes_of_use_case m u.U.id in
            let res = Sim.simulate ~config:m.Mapping.config ~routes ~duration_slots:3200 in
            Sim.within_contract res)
          ucs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cores_byte_identical;
      prop_cores_identical_long_horizon;
      prop_backlog_bound_holds;
      prop_random_designs_simulate_cleanly;
    ]

let () =
  Alcotest.run "noc_sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "delivers contract" `Quick test_single_connection_delivers_contract;
          Alcotest.test_case "overbooked backlog" `Quick test_overbooked_connection_builds_backlog;
          Alcotest.test_case "collision detected" `Quick test_collision_detected;
          Alcotest.test_case "shifted slots" `Quick test_shifted_slots_no_collision;
          Alcotest.test_case "same-switch latency" `Quick test_same_switch_route_low_latency;
          Alcotest.test_case "spread starts latency" `Quick test_more_starts_lower_latency;
          Alcotest.test_case "rejects bad duration" `Quick test_rejects_bad_duration;
          Alcotest.test_case "mapped design in contract" `Quick test_mapped_design_simulates_within_contract;
        ] );
      ( "best_effort",
        [
          Alcotest.test_case "idle network" `Quick test_be_gets_idle_network;
          Alcotest.test_case "starved by saturated GT" `Quick test_be_starved_by_saturated_gt;
          Alcotest.test_case "fair sharing" `Quick test_be_shares_leftover_fairly;
          Alcotest.test_case "complement of GT" `Quick test_be_throughput_is_complement_of_gt;
          Alcotest.test_case "multihop latency" `Quick test_be_multihop_latency_grows;
        ] );
      ( "bursty",
        [
          Alcotest.test_case "GT drains bursts" `Quick test_bursty_gt_still_delivers_mean;
          Alcotest.test_case "bursts queue" `Quick test_bursty_worse_latency_than_fluid;
          Alcotest.test_case "mean preserved" `Quick test_bursty_mean_preserved;
          Alcotest.test_case "bad params rejected" `Quick test_bursty_rejects_bad_params;
          Alcotest.test_case "latency within LR bound" `Quick test_bursty_latency_within_service_curve_bound;
          Alcotest.test_case "backlog within LR bound" `Quick test_bursty_backlog_within_service_curve_bound;
        ] );
      ( "trace",
        [
          Alcotest.test_case "cbr shape" `Quick test_trace_cbr_shape;
          Alcotest.test_case "video GOP shape" `Quick test_trace_video_gop_shape;
          Alcotest.test_case "validate rejects" `Quick test_trace_validate_rejects;
          Alcotest.test_case "replay through GT" `Quick test_trace_replay_through_gt;
          Alcotest.test_case "video over provisioned GT" `Quick test_trace_replay_video_over_provisioned_gt;
          Alcotest.test_case "replay rejects invalid" `Quick test_trace_replay_rejects_invalid;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "all-idle horizon" `Quick test_cores_agree_all_idle;
          Alcotest.test_case "replay past horizon" `Quick test_cores_agree_replay_past_horizon;
          Alcotest.test_case "wheel wrap" `Quick test_cores_agree_wheel_wrap;
          Alcotest.test_case "mixed traffic" `Quick test_cores_agree_mixed_traffic;
          Alcotest.test_case "unknown flow id rejected" `Quick test_rejects_unknown_flow_source;
          Alcotest.test_case "duplicate flow id rejected" `Quick test_rejects_duplicate_flow_source;
          Alcotest.test_case "GT alone: duty 1.0" `Quick test_gt_alone_full_duty;
          Alcotest.test_case "GT alone: period 1" `Quick test_gt_alone_period_one;
          Alcotest.test_case "GT alone: period past horizon" `Quick test_gt_alone_period_past_horizon;
          Alcotest.test_case "GT alone: horizon mid-burst" `Quick test_gt_alone_horizon_mid_burst;
          Alcotest.test_case "GT alone: overbooked" `Quick test_gt_alone_overbooked;
          Alcotest.test_case "GT alone: same-switch" `Quick test_gt_alone_same_switch;
          Alcotest.test_case "GT alone: shares links with BE" `Quick test_gt_alone_shares_link_with_be;
        ] );
      ( "buffer_bounds",
        [ Alcotest.test_case "backlog within NI buffer bound" `Quick test_backlog_within_buffer_bound ] );
      ("properties", qcheck_cases);
    ]
