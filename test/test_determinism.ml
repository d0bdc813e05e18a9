(* Determinism regression: the indexed/bitset mapping engine (worklist
   heaps, pending index, rotate-and-AND slot intersection) must produce
   byte-identical designs to the straightforward Reference formulation
   — the reproduction tables in EXPERIMENTS.md depend on it. *)

module Mapping = Noc_core.Mapping
module Route = Noc_arch.Route
module Mesh = Noc_arch.Mesh
module SD = Noc_benchkit.Soc_designs
module Syn = Noc_benchkit.Synthetic

let fingerprint (m : Mapping.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "mesh %dx%d\n" (Mesh.width m.Mapping.mesh) (Mesh.height m.Mapping.mesh));
  Array.iteri (fun core s -> Buffer.add_string b (Printf.sprintf "core %d @ %d\n" core s))
    m.Mapping.placement;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "route %d uc%d %d->%d sw %d->%d %.6f %s links [%s] starts [%s]\n"
           r.Route.flow_id r.Route.use_case r.Route.src_core r.Route.dst_core r.Route.src_switch
           r.Route.dst_switch r.Route.bandwidth
           (match r.Route.service with Route.Gt -> "gt" | Route.Be -> "be")
           (String.concat "," (List.map string_of_int r.Route.links))
           (String.concat "," (List.map string_of_int r.Route.slot_starts))))
    m.Mapping.routes;
  Buffer.contents b

let design ~engine ~groups ucs =
  match Mapping.map_design ~engine ~groups ucs with
  | Ok m -> fingerprint m
  | Error f -> Format.asprintf "FAILED: %a" Mapping.pp_failure f

let check_workload name ~groups ucs () =
  Alcotest.(check string)
    (name ^ ": indexed = reference")
    (design ~engine:Mapping.Reference ~groups ucs)
    (design ~engine:Mapping.Indexed ~groups ucs)

let singleton_groups ucs = List.mapi (fun i _ -> [ i ]) ucs

let d1_case () =
  let ucs = SD.d1 () in
  check_workload "D1" ~groups:(singleton_groups ucs) ucs ()

let synthetic_case ~seed () =
  let ucs = Syn.generate ~seed ~params:Syn.spread_params ~use_cases:5 in
  check_workload (Printf.sprintf "Sp5 seed %d" seed) ~groups:(singleton_groups ucs) ucs ()

(* Shared groups exercise the group-shared reservation (active/passive
   members, mask intersection across several states). *)
let grouped_case () =
  let ucs = Syn.generate ~seed:300 ~params:Syn.bottleneck_params ~use_cases:5 in
  check_workload "Bot5 grouped" ~groups:[ [ 0; 1 ]; [ 2; 3; 4 ] ] ucs ()

(* Sweep engine: the design-space exploration must be byte-identical
   across worker counts (warm seeds come only from earlier frequency
   waves, never from timing), and warm starts must agree with the cold
   full search on feasibility, switch count and mesh at every point —
   the contract behind the --jobs and --cold flags. *)
module DS = Noc_power.Design_space

let point_fingerprint (p : DS.point) =
  Printf.sprintf "%.1fMHz slots=%d %s -> %s [%s]" p.DS.freq_mhz p.DS.slots
    (match p.DS.topology with Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus")
    (match p.DS.switches with None -> "infeasible" | Some s -> string_of_int s ^ " switches")
    (match p.DS.start with DS.Warm -> "warm" | DS.Cold -> "cold")

let sweep_fingerprint points = String.concat "\n" (List.map point_fingerprint points)

let explore_workload () =
  let ucs = SD.d1 () in
  let groups = singleton_groups ucs in
  let axes =
    { DS.frequencies = [ 100.0; 250.0; 500.0; 1000.0 ]; slot_counts = [ 16; 32 ];
      topologies = [ Mesh.Mesh ] }
  in
  fun ~jobs ~warm ->
    DS.explore ~axes ~jobs ~warm ~config:Noc_arch.Noc_config.default ~groups ucs

let explore_jobs_independent () =
  let run = explore_workload () in
  let one = run ~jobs:1 ~warm:true in
  let four = run ~jobs:4 ~warm:true in
  Alcotest.(check string)
    "explore: jobs 4 = jobs 1 (byte-identical)" (sweep_fingerprint one) (sweep_fingerprint four)

let explore_warm_vs_cold () =
  let run = explore_workload () in
  let warm = run ~jobs:1 ~warm:true in
  let cold = run ~jobs:1 ~warm:false in
  (* warm and cold disagree only in the [start] tag; feasibility and
     switch counts are identical point for point *)
  let strip (p : DS.point) = { p with DS.start = DS.Cold } in
  Alcotest.(check string)
    "explore: warm = cold modulo start tag"
    (sweep_fingerprint (List.map strip cold))
    (sweep_fingerprint (List.map strip warm));
  (* and that forces front identity *)
  let front ps =
    List.map (fun (p : DS.point) -> (p.DS.freq_mhz, p.DS.slots, p.DS.switches)) (DS.pareto ps)
  in
  Alcotest.(check bool) "explore: warm front = cold front" true (front warm = front cold);
  (* the sweep must actually exercise the warm path somewhere, or the
     test proves nothing *)
  Alcotest.(check bool) "explore: at least one warm-started point" true
    (List.exists (fun (p : DS.point) -> p.DS.start = DS.Warm) warm)

let pareto_sweep_jobs_independent () =
  let ucs = SD.d1 () in
  let groups = singleton_groups ucs in
  let sweep jobs warm =
    Noc_power.Pareto.sweep ~frequencies:[ 100.0; 500.0; 1000.0 ] ~jobs ~warm
      ~config:Noc_arch.Noc_config.default ~groups ucs
  in
  let show ps =
    String.concat ";"
      (List.map
         (fun (p : Noc_power.Pareto.point) ->
           Printf.sprintf "%.0f:%s" p.Noc_power.Pareto.freq_mhz
             (match p.Noc_power.Pareto.switches with None -> "-" | Some s -> string_of_int s))
         ps)
  in
  let reference = show (sweep 1 false) in
  Alcotest.(check string) "pareto sweep: jobs 4 warm = jobs 1 cold" reference (show (sweep 4 true));
  Alcotest.(check string) "pareto sweep: jobs 1 warm = jobs 1 cold" reference (show (sweep 1 true))

let () =
  Alcotest.run "determinism"
    [
      ( "indexed engine vs reference",
        [
          Alcotest.test_case "D1" `Quick d1_case;
          Alcotest.test_case "Sp5 seed 200" `Quick (synthetic_case ~seed:200);
          Alcotest.test_case "Sp5 seed 4242" `Quick (synthetic_case ~seed:4242);
          Alcotest.test_case "Bot5 shared groups" `Quick grouped_case;
        ] );
      ( "sweep engine",
        [
          Alcotest.test_case "explore independent of jobs" `Quick explore_jobs_independent;
          Alcotest.test_case "explore warm = cold" `Quick explore_warm_vs_cold;
          Alcotest.test_case "pareto sweep jobs/warm invariant" `Quick pareto_sweep_jobs_independent;
        ] );
    ]
