(* Tests for Noc_traffic: flows, use-cases, statistics. *)

module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Stats = Noc_traffic.Traffic_stats

let check_float = Alcotest.(check (float 1e-9))

(* --- flow -------------------------------------------------------------- *)

let test_flow_defaults () =
  let f = Flow.v ~src:0 ~dst:1 100.0 in
  check_float "bandwidth" 100.0 f.Flow.bandwidth;
  Alcotest.(check bool) "unconstrained latency" true (f.Flow.latency_ns = infinity);
  Alcotest.(check (pair int int)) "pair" (0, 1) (Flow.pair f)

let test_flow_validate_ok () =
  let f = Flow.v ~src:0 ~dst:1 ~latency_ns:100.0 50.0 in
  Alcotest.(check bool) "valid" true (Flow.validate ~cores:2 f = Ok ())

let test_flow_validate_rejections () =
  let bad name f = Alcotest.(check bool) name true (Result.is_error (Flow.validate ~cores:4 f)) in
  bad "src out of range" (Flow.v ~src:4 ~dst:1 1.0);
  bad "dst out of range" (Flow.v ~src:0 ~dst:(-1) 1.0);
  bad "self loop" (Flow.v ~src:2 ~dst:2 1.0);
  bad "zero bandwidth" (Flow.v ~src:0 ~dst:1 0.0);
  bad "negative latency" (Flow.v ~src:0 ~dst:1 ~latency_ns:(-5.0) 1.0)

let test_flow_sort_order () =
  let a = Flow.v ~src:0 ~dst:1 10.0 in
  let b = Flow.v ~src:0 ~dst:2 90.0 in
  let c = Flow.v ~src:1 ~dst:2 90.0 in
  let sorted = List.sort Flow.compare_bandwidth_desc [ a; b; c ] in
  Alcotest.(check (list (pair int int)))
    "descending bandwidth, pair tie-break"
    [ (0, 2); (1, 2); (0, 1) ]
    (List.map Flow.pair sorted)

let test_flow_best_effort_rules () =
  let be = Flow.v ~service:Flow.Best_effort ~src:0 ~dst:1 40.0 in
  Alcotest.(check bool) "BE valid" true (Flow.validate ~cores:2 be = Ok ());
  Alcotest.(check bool) "not guaranteed" false (Flow.is_guaranteed be);
  let be_lat = Flow.v ~service:Flow.Best_effort ~latency_ns:100.0 ~src:0 ~dst:1 40.0 in
  Alcotest.(check bool) "BE with latency rejected" true
    (Result.is_error (Flow.validate ~cores:2 be_lat))

let test_flow_sort_gt_before_be () =
  let gt = Flow.v ~src:0 ~dst:1 1.0 in
  let be = Flow.v ~service:Flow.Best_effort ~src:0 ~dst:2 999.0 in
  Alcotest.(check bool) "GT first even when smaller" true
    (Flow.compare_bandwidth_desc gt be < 0)

(* --- use case ----------------------------------------------------------- *)

let test_use_case_keeps_gt_and_be_distinct () =
  let u =
    U.create ~id:0 ~name:"u" ~cores:3
      [
        Flow.v ~src:0 ~dst:1 10.0;
        Flow.v ~service:Flow.Best_effort ~src:0 ~dst:1 20.0;
      ]
  in
  Alcotest.(check int) "two connections" 2 (U.flow_count u);
  Alcotest.(check int) "one guaranteed" 1 (List.length (U.guaranteed_flows u));
  Alcotest.(check int) "one best effort" 1 (List.length (U.best_effort_flows u));
  match U.find_flow u ~src:0 ~dst:1 with
  | Some f -> Alcotest.(check bool) "find prefers GT" true (Flow.is_guaranteed f)
  | None -> Alcotest.fail "flow missing"

let test_use_case_basics () =
  let u =
    U.create ~id:3 ~name:"u" ~cores:4 [ Flow.v ~src:0 ~dst:1 10.0; Flow.v ~src:1 ~dst:2 20.0 ]
  in
  Alcotest.(check int) "id" 3 u.U.id;
  Alcotest.(check int) "flows" 2 (U.flow_count u);
  check_float "total" 30.0 (U.total_bandwidth u);
  check_float "max" 20.0 (U.max_bandwidth u)

let test_use_case_merges_duplicate_pairs () =
  let u =
    U.create ~id:0 ~name:"u" ~cores:3
      [
        Flow.v ~src:0 ~dst:1 ~latency_ns:500.0 10.0;
        Flow.v ~src:0 ~dst:1 ~latency_ns:300.0 15.0;
      ]
  in
  Alcotest.(check int) "merged" 1 (U.flow_count u);
  match U.find_flow u ~src:0 ~dst:1 with
  | Some f ->
    check_float "bandwidths sum" 25.0 f.Flow.bandwidth;
    check_float "latency min" 300.0 f.Flow.latency_ns
  | None -> Alcotest.fail "merged flow missing"

let test_use_case_rejects_invalid_flow () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (U.create ~id:0 ~name:"u" ~cores:2 [ Flow.v ~src:0 ~dst:5 1.0 ]);
       false
     with Invalid_argument _ -> true)

let test_use_case_sorted_flows () =
  let u =
    U.create ~id:0 ~name:"u" ~cores:4
      [ Flow.v ~src:0 ~dst:1 5.0; Flow.v ~src:1 ~dst:2 50.0; Flow.v ~src:2 ~dst:3 20.0 ]
  in
  let bws = List.map (fun f -> f.Flow.bandwidth) (U.sorted_flows_desc u) in
  Alcotest.(check (list (float 0.0))) "descending" [ 50.0; 20.0; 5.0 ] bws

let test_use_case_core_degree () =
  let u =
    U.create ~id:0 ~name:"u" ~cores:4 [ Flow.v ~src:0 ~dst:1 1.0; Flow.v ~src:0 ~dst:2 1.0 ]
  in
  Alcotest.(check (array int)) "degrees" [| 2; 1; 1; 0 |] (U.core_degree u)

let test_use_case_communicating_cores () =
  let u = U.create ~id:0 ~name:"u" ~cores:5 [ Flow.v ~src:1 ~dst:3 1.0 ] in
  Alcotest.(check (list int)) "cores" [ 1; 3 ] (U.communicating_cores u)

let test_use_case_rename () =
  let u = U.create ~id:0 ~name:"a" ~cores:2 [ Flow.v ~src:0 ~dst:1 1.0 ] in
  let r = U.rename u ~id:7 ~name:"b" in
  Alcotest.(check int) "new id" 7 r.U.id;
  Alcotest.(check string) "new name" "b" r.U.name;
  Alcotest.(check int) "flows kept" 1 (U.flow_count r)

let test_use_case_empty_flows () =
  let u = U.create ~id:0 ~name:"idle" ~cores:3 [] in
  check_float "zero total" 0.0 (U.total_bandwidth u);
  check_float "zero max" 0.0 (U.max_bandwidth u);
  Alcotest.(check (list int)) "no communicating cores" [] (U.communicating_cores u)

let test_merge_keeps_classes_apart_under_sum () =
  (* summing duplicates happens within each class only *)
  let u =
    U.create ~id:0 ~name:"u" ~cores:3
      [
        Flow.v ~src:0 ~dst:1 10.0;
        Flow.v ~src:0 ~dst:1 15.0;
        Flow.v ~service:Flow.Best_effort ~src:0 ~dst:1 7.0;
        Flow.v ~service:Flow.Best_effort ~src:0 ~dst:1 3.0;
      ]
  in
  Alcotest.(check int) "two connections" 2 (U.flow_count u);
  (match U.guaranteed_flows u with
  | [ f ] -> Alcotest.(check (float 1e-9)) "GT sum" 25.0 f.Flow.bandwidth
  | _ -> Alcotest.fail "one GT flow expected");
  match U.best_effort_flows u with
  | [ f ] -> Alcotest.(check (float 1e-9)) "BE sum" 10.0 f.Flow.bandwidth
  | _ -> Alcotest.fail "one BE flow expected"

(* --- stats --------------------------------------------------------------- *)

let test_stats_compute () =
  let u1 =
    U.create ~id:0 ~name:"u1" ~cores:4
      [ Flow.v ~src:0 ~dst:1 ~latency_ns:100.0 10.0; Flow.v ~src:1 ~dst:2 30.0 ]
  in
  let u2 = U.create ~id:1 ~name:"u2" ~cores:4 [ Flow.v ~src:2 ~dst:3 100.0 ] in
  let s = Stats.compute [ u1; u2 ] in
  Alcotest.(check int) "use cases" 2 s.Stats.use_cases;
  Alcotest.(check int) "min flows" 1 s.Stats.min_flows;
  Alcotest.(check int) "max flows" 2 s.Stats.max_flows;
  check_float "mean flows" 1.5 s.Stats.mean_flows;
  check_float "total" 140.0 s.Stats.total_bandwidth;
  check_float "peak use case" 100.0 s.Stats.peak_use_case_bandwidth;
  check_float "max flow" 100.0 s.Stats.max_flow_bandwidth;
  Alcotest.(check int) "latency constrained" 1 s.Stats.latency_constrained_flows

let test_stats_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Traffic_stats.compute: no use-cases")
    (fun () -> ignore (Stats.compute []))

let test_stats_rejects_mismatched_cores () =
  let u1 = U.create ~id:0 ~name:"a" ~cores:2 [] in
  let u2 = U.create ~id:1 ~name:"b" ~cores:3 [] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Traffic_stats.compute: use-cases disagree on core count") (fun () ->
      ignore (Stats.compute [ u1; u2 ]))

(* --- properties ----------------------------------------------------------- *)

let flow_gen =
  QCheck.Gen.(
    map3
      (fun src dst bw -> Flow.v ~src ~dst:(if dst = src then (dst + 1) mod 8 else dst) (1.0 +. bw))
      (int_bound 7) (int_bound 7) (float_bound_exclusive 500.0))

let prop_merge_preserves_total =
  QCheck.Test.make ~name:"pair-merge preserves total bandwidth" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) flow_gen))
    (fun flows ->
      let raw = List.fold_left (fun acc f -> acc +. f.Flow.bandwidth) 0.0 flows in
      let u = U.create ~id:0 ~name:"p" ~cores:8 flows in
      Float.abs (U.total_bandwidth u -. raw) < 1e-6)

let prop_merge_unique_pairs =
  QCheck.Test.make ~name:"use-case has at most one flow per pair" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) flow_gen))
    (fun flows ->
      let u = U.create ~id:0 ~name:"p" ~cores:8 flows in
      let pairs = List.map Flow.pair u.U.flows in
      List.length pairs = List.length (List.sort_uniq compare pairs))

let prop_sorted_desc =
  QCheck.Test.make ~name:"sorted_flows_desc is non-increasing" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) flow_gen))
    (fun flows ->
      let u = U.create ~id:0 ~name:"p" ~cores:8 flows in
      let rec mono = function
        | a :: (b :: _ as rest) -> a.Flow.bandwidth >= b.Flow.bandwidth && mono rest
        | _ -> true
      in
      mono (U.sorted_flows_desc u))

(* The comparator before its tie-break became monomorphic, verbatim. *)
let reference_compare_bandwidth_desc a b =
  let service_rank = function Flow.Guaranteed -> 0 | Flow.Best_effort -> 1 in
  match compare (service_rank a.Flow.service) (service_rank b.Flow.service) with
  | 0 -> (
    match compare b.Flow.bandwidth a.Flow.bandwidth with
    | 0 -> compare (a.Flow.src, a.Flow.dst) (b.Flow.src, b.Flow.dst)
    | c -> c)
  | c -> c

(* Few distinct endpoints and bandwidths, so most pairs tie on service
   and bandwidth and reach the (src, dst) tie-break; the bandwidths
   include the values a float comparison treats specially. *)
let any_flow_gen =
  QCheck.Gen.(
    map4
      (fun src dst bw be ->
        {
          (Flow.v ~src ~dst bw) with
          Flow.service = (if be then Flow.Best_effort else Flow.Guaranteed);
        })
      (int_range (-2) 3) (int_range (-2) 3)
      (oneofl [ 0.0; -0.0; 1.0; 2.5; 1e300; infinity; neg_infinity; nan; max_int |> float_of_int ])
      bool)

let prop_compare_matches_reference =
  QCheck.Test.make ~name:"compare_bandwidth_desc = pre-change comparator" ~count:2000
    (QCheck.make QCheck.Gen.(pair any_flow_gen any_flow_gen))
    (fun (a, b) -> Flow.compare_bandwidth_desc a b = reference_compare_bandwidth_desc a b)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_preserves_total;
      prop_merge_unique_pairs;
      prop_sorted_desc;
      prop_compare_matches_reference;
    ]

let () =
  Alcotest.run "noc_traffic"
    [
      ( "flow",
        [
          Alcotest.test_case "defaults" `Quick test_flow_defaults;
          Alcotest.test_case "validate ok" `Quick test_flow_validate_ok;
          Alcotest.test_case "validate rejections" `Quick test_flow_validate_rejections;
          Alcotest.test_case "sort order" `Quick test_flow_sort_order;
          Alcotest.test_case "best-effort rules" `Quick test_flow_best_effort_rules;
          Alcotest.test_case "GT sorts before BE" `Quick test_flow_sort_gt_before_be;
        ] );
      ( "use_case",
        [
          Alcotest.test_case "GT/BE kept distinct" `Quick test_use_case_keeps_gt_and_be_distinct;
          Alcotest.test_case "class-wise merging" `Quick test_merge_keeps_classes_apart_under_sum;
          Alcotest.test_case "basics" `Quick test_use_case_basics;
          Alcotest.test_case "merges duplicates" `Quick test_use_case_merges_duplicate_pairs;
          Alcotest.test_case "rejects invalid flow" `Quick test_use_case_rejects_invalid_flow;
          Alcotest.test_case "sorted flows" `Quick test_use_case_sorted_flows;
          Alcotest.test_case "core degree" `Quick test_use_case_core_degree;
          Alcotest.test_case "communicating cores" `Quick test_use_case_communicating_cores;
          Alcotest.test_case "rename" `Quick test_use_case_rename;
          Alcotest.test_case "empty flows" `Quick test_use_case_empty_flows;
        ] );
      ( "stats",
        [
          Alcotest.test_case "compute" `Quick test_stats_compute;
          Alcotest.test_case "rejects empty" `Quick test_stats_rejects_empty;
          Alcotest.test_case "rejects mismatch" `Quick test_stats_rejects_mismatched_cores;
        ] );
      ("properties", qcheck_cases);
    ]
