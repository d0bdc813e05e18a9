(* Determinism regression: the shipped mapping engine (worklist heaps,
   pair index) must produce byte-identical designs to the
   straightforward formulation in [Noc_oracle.Reference_mapping], and
   its rotate-and-AND slot intersection must find exactly the starts
   of [Noc_oracle.Reference_starts]' list intersection — the
   reproduction tables in EXPERIMENTS.md depend on it. *)

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

let design = function
  | Ok m -> fingerprint m
  | Error f -> Format.asprintf "FAILED: %a" Mapping.pp_failure f

let check_workload name ~groups ucs () =
  Alcotest.(check string)
    (name ^ ": indexed = reference")
    (design (Noc_oracle.Reference_mapping.map_design ~groups ucs))
    (design (Mapping.map_design ~groups ucs))

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

(* One to three use-case states with randomly taken slots (each link
   its own density) on meshes and tori up to 5x4, XY paths between
   random switch pairs (up to seven hops), each state alone and all
   together, at table sizes on both sides of one mask word. *)
let prop_common_starts_match_reference =
  QCheck.Test.make ~name:"common_starts = list intersection" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let slots = pick [| 4; 8; 16; 32; 62; 63; 70 |] in
      let config = { Noc_arch.Noc_config.default with Noc_arch.Noc_config.slots } in
      let mesh =
        Mesh.create_kind ~kind:(pick [| Mesh.Mesh; Mesh.Torus |])
          ~width:(2 + Random.State.int rng 4) ~height:(1 + Random.State.int rng 4)
      in
      let states =
        List.init
          (1 + Random.State.int rng 3)
          (fun u ->
            let st = Noc_core.Resources.create ~config ~mesh ~use_case:u in
            for l = 0 to Mesh.link_count mesh - 1 do
              let taken = Random.State.int rng 4 in
              for slot = 0 to slots - 1 do
                if Random.State.int rng 8 < taken then
                  Noc_arch.Slot_table.reserve (Noc_core.Resources.table st l) ~slot ~owner:l
              done
            done;
            st)
      in
      let acc = Noc_arch.Bitmask.create ~slots ~full:true and candidates = Array.make slots 0 in
      let agree links members =
        let n = Noc_core.Path_select.common_starts ~acc ~candidates members links in
        Array.to_list (Array.sub candidates 0 n)
        = Noc_oracle.Reference_starts.common_starts members links
      in
      let n_switch = Mesh.switch_count mesh in
      let random_xy _ =
        Mesh.xy_route mesh ~src:(Random.State.int rng n_switch) ~dst:(Random.State.int rng n_switch)
      in
      List.for_all
        (fun links ->
          links = [] || List.for_all (agree links) (states :: List.map (fun s -> [ s ]) states))
        (List.init 10 random_xy))

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


(* Pins for what perfbench/goldens.tsv does not cover (it maps only
   plain meshes with min-cost routing): the torus explore grid, XY
   routing and a mesh with express channels.  The digests were taken
   from the binary before the allocation-light routing kernel and the
   per-design attempt context; the [--json] bytes of [explore d1..d4
   --torus] and [map d1..d4 --xy] must stay exactly those. *)
module P = Noc_serve.Protocol
module Service = Noc_serve.Service
module Payload = Noc_serve.Payload

let payload_md5 op =
  match Service.prepare op with
  | Error (_, msg) -> Alcotest.failf "prepare: %s" msg
  | Ok job -> (
    match Service.run job with
    | Ok o -> Digest.to_hex (Digest.string (Payload.render o))
    | Error msg -> Alcotest.failf "run: %s" msg)

let bench_spec name =
  let ucs =
    match name with
    | "d1" -> SD.d1 ()
    | "d2" -> SD.d2 ()
    | "d3" -> SD.d3 ()
    | _ -> SD.d4 ()
  in
  Noc_core.Spec_parser.to_text (Noc_core.Design_flow.spec_of_use_cases ~name ucs)

let pinned_explore_torus =
  [
    ("d1", "5cc5db43dbb280b8b7e4301789e8502b");
    ("d2", "b9ac09c47d4e712f76f1b1e5908ffa98");
    ("d3", "aeff877bdbafce66211ed33f5192f66d");
    ("d4", "5814f6ab658975cf8458ea8f5798bfad");
  ]

let pinned_map_xy =
  [
    ("d1", "3f00905321605444bfd3b66dcce28a43");
    ("d2", "d450b725a37301774881986d151bbfe1");
    ("d3", "2edd3d394af06678506199b33c13f475");
    ("d4", "136d99ee7832e26aff3c63d08736cfe3");
  ]

let explore_torus_pin (name, md5) () =
  Alcotest.(check string)
    ("explore " ^ name ^ " --torus --json")
    md5
    (payload_md5
       (P.Explore
          {
            name;
            spec = bench_spec name;
            config = P.default_config;
            frequencies = None;
            slot_counts = None;
            torus = true;
          }))

let map_xy_pin (name, md5) () =
  Alcotest.(check string)
    ("map " ^ name ^ " --xy --json")
    md5
    (payload_md5
       (P.Map { name; spec = bench_spec name; config = { P.default_config with P.xy = true } }))

(* Sp5 on a 4x4 mesh with three express channels: the link graph is
   no longer a grid, so path costs tie differently and the detour
   blacklist sees links the plain mesh lacks. *)
let express_pin () =
  let ucs = Syn.generate ~seed:200 ~params:Syn.spread_params ~use_cases:5 in
  let mesh =
    Mesh.with_express (Mesh.create ~width:4 ~height:4) ~express:[ (0, 15); (3, 12); (5, 10) ]
  in
  let text =
    match
      Mapping.map_attempt ~config:Noc_arch.Noc_config.default ~mesh
        ~groups:(singleton_groups ucs) ucs
    with
    | Ok m -> fingerprint m
    | Error msg -> "FAILED: " ^ msg
  in
  Alcotest.(check string) "Sp5 on an express 4x4" "c3389df596a3d23c5f6e35539a45ef8c"
    (Digest.to_hex (Digest.string text))

let () =
  Alcotest.run "determinism"
    [
      ( "indexed engine vs reference",
        [
          Alcotest.test_case "D1" `Quick d1_case;
          Alcotest.test_case "Sp5 seed 200" `Quick (synthetic_case ~seed:200);
          Alcotest.test_case "Sp5 seed 4242" `Quick (synthetic_case ~seed:4242);
          Alcotest.test_case "Bot5 shared groups" `Quick grouped_case;
          QCheck_alcotest.to_alcotest prop_common_starts_match_reference;
        ] );
      ( "sweep engine",
        [
          Alcotest.test_case "explore independent of jobs" `Quick explore_jobs_independent;
          Alcotest.test_case "explore warm = cold" `Quick explore_warm_vs_cold;
          Alcotest.test_case "pareto sweep jobs/warm invariant" `Quick pareto_sweep_jobs_independent;
        ] );
      ( "pinned outputs",
        List.map
          (fun (n, _ as pin) ->
            Alcotest.test_case ("explore " ^ n ^ " torus") `Quick (explore_torus_pin pin))
          pinned_explore_torus
        @ List.map
            (fun (n, _ as pin) -> Alcotest.test_case ("map " ^ n ^ " xy") `Quick (map_xy_pin pin))
            pinned_map_xy
        @ [ Alcotest.test_case "express-channel mapping" `Quick express_pin ] );
    ]
