(* Cross-module property tests: invariants that tie the mapping engine,
   the resource model, verification, re-configuration analysis, export
   and the simulator together on randomly generated designs. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Slot_table = Noc_arch.Slot_table
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module Mapping = Noc_core.Mapping
module Resources = Noc_core.Resources
module Reconfig = Noc_core.Reconfig
module DF = Noc_core.Design_flow
module Syn = Noc_benchkit.Synthetic

let gen_design seed =
  let params = { Syn.spread_params with cores = 10; flows_lo = 6; flows_hi = 16 } in
  let ucs = Syn.generate ~seed ~params ~use_cases:3 in
  match Mapping.map_design ~groups:[ [ 0 ]; [ 1 ]; [ 2 ] ] ucs with
  | Ok m -> Some (m, ucs)
  | Error _ -> None

let prop_slot_accounting_consistent =
  (* per use-case and link: used slots in the table = slots implied by
     that use-case's routes over the link *)
  QCheck.Test.make ~name:"slot tables = sum of route reservations" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      match gen_design seed with
      | None -> false
      | Some (m, ucs) ->
        let links = Mesh.link_count m.Mapping.mesh in
        List.for_all
          (fun u ->
            let uid = u.U.id in
            let implied = Array.make links 0 in
            List.iter
              (fun r ->
                List.iter
                  (fun _start -> List.iter (fun l -> implied.(l) <- implied.(l) + 1) r.Route.links)
                  r.Route.slot_starts)
              (Mapping.routes_of_use_case m uid);
            let ok = ref true in
            for l = 0 to links - 1 do
              let used = Slot_table.used_count (Resources.table m.Mapping.states.(uid) l) in
              if used <> implied.(l) then ok := false
            done;
            !ok)
          ucs)

let prop_slot_starts_in_range =
  QCheck.Test.make ~name:"every slot start lies in [0, slots)" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      match gen_design seed with
      | None -> false
      | Some (m, _) ->
        let slots = m.Mapping.config.Config.slots in
        List.for_all
          (fun r -> List.for_all (fun s -> s >= 0 && s < slots) r.Route.slot_starts)
          m.Mapping.routes)

let prop_mapping_deterministic =
  QCheck.Test.make ~name:"mapping is deterministic" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      match (gen_design seed, gen_design seed) with
      | Some (a, _), Some (b, _) ->
        a.Mapping.placement = b.Mapping.placement
        && List.length a.Mapping.routes = List.length b.Mapping.routes
        && Mapping.total_weighted_hops a = Mapping.total_weighted_hops b
      | None, None -> true
      | _ -> false)

let prop_reconfig_symmetric =
  QCheck.Test.make ~name:"switching cost is symmetric" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      match gen_design seed with
      | None -> false
      | Some (m, ucs) ->
        let n = List.length ucs in
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = a + 1 to n - 1 do
            let ab = Reconfig.pair m ~from_uc:a ~to_uc:b in
            let ba = Reconfig.pair m ~from_uc:b ~to_uc:a in
            if
              ab.Reconfig.slot_writes <> ba.Reconfig.slot_writes
              || ab.Reconfig.paths_changed <> ba.Reconfig.paths_changed
            then ok := false
          done
        done;
        !ok)

let prop_export_json_valid_for_random_designs =
  QCheck.Test.make ~name:"exported JSON always validates" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Syn.spread_params with cores = 8; flows_lo = 4; flows_hi = 10 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:2 in
      match DF.run (DF.spec_of_use_cases ~name:"prop" ucs) with
      | Error _ -> false
      | Ok d ->
        Noc_export.Json.validate (Noc_export.Design_export.design_to_string d) = Ok ())

let prop_buffer_totals_cover_every_route =
  QCheck.Test.make ~name:"NI buffer totals positive wherever traffic flows" ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      match gen_design seed with
      | None -> false
      | Some (m, ucs) ->
        let config = m.Mapping.config in
        let cores = Array.length m.Mapping.placement in
        List.for_all
          (fun u ->
            let totals =
              Noc_arch.Ni_buffer.per_core_totals ~config ~cores
                (Mapping.routes_of_use_case m u.U.id)
            in
            List.for_all
              (fun f -> totals.(f.Flow.src) > 0 && totals.(f.Flow.dst) > 0)
              u.U.flows)
          ucs)

let prop_latency_bounds_respect_constraints =
  QCheck.Test.make ~name:"every GT bound within its constraint on mapped designs" ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      match gen_design seed with
      | None -> false
      | Some (m, ucs) ->
        let config = m.Mapping.config in
        List.for_all
          (fun u ->
            List.for_all
              (fun f ->
                if not (Flow.is_guaranteed f) then true
                else
                  match
                    List.find_opt
                      (fun r ->
                        r.Route.use_case = u.U.id && r.Route.src_core = f.Flow.src
                        && r.Route.dst_core = f.Flow.dst && r.Route.service = Route.Gt)
                      m.Mapping.routes
                  with
                  | None -> false
                  | Some r -> Route.worst_case_latency_ns ~config r <= f.Flow.latency_ns +. 1e-9)
              u.U.flows)
          ucs)

(* bias variants both succeed and verify *)
let prop_bias_variants_verify =
  QCheck.Test.make ~name:"both placement biases give verified designs" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let params = { Syn.spread_params with cores = 8; flows_lo = 5; flows_hi = 12 } in
      let ucs = Syn.generate ~seed ~params ~use_cases:2 in
      let mesh = Mesh.create ~width:3 ~height:3 in
      let check bias =
        match Mapping.map_on_mesh ~bias ~config:Config.default ~mesh ~groups:[ [ 0 ]; [ 1 ] ] ucs with
        | Ok m -> Noc_core.Verify.ok (Noc_core.Verify.verify m ucs)
        | Error _ -> true (* infeasible at this fixed size is acceptable *)
      in
      check Mapping.Compact && check Mapping.Spread)

(* Slot-table mask/owner-array agreement: drive a random op sequence
   (reserve / release / release_owner) and require the incrementally
   maintained free mask and used counter to agree with the owner array
   — the source of truth — after every step.  Sizes straddle the
   one-word bitmask limit (62) to cover both representations. *)
let prop_slot_table_mask_agrees =
  QCheck.Test.make ~name:"slot table free mask/count = owner array" ~count:100
    QCheck.(pair (int_range 1 80) (small_list (pair small_nat (int_bound 5))))
    (fun (slots, ops) ->
      let t = Slot_table.create ~slots in
      let step (slot, op) =
        let slot = slot mod slots in
        match op with
        | 0 | 1 | 2 ->
          if Slot_table.is_free t slot then Slot_table.reserve t ~slot ~owner:(op + 1)
        | 3 -> Slot_table.release t ~slot
        | _ -> ignore (Slot_table.release_owner t ~owner:(op - 3))
      in
      List.for_all
        (fun op ->
          step op;
          let mask = Slot_table.free_mask t in
          let ok = ref (Noc_arch.Bitmask.slots mask = slots) in
          let naive_used = ref 0 in
          for i = 0 to slots - 1 do
            let free = Slot_table.owner t i = None in
            if free <> Slot_table.is_free t i then ok := false;
            if free <> Noc_arch.Bitmask.mem mask i then ok := false;
            if not free then incr naive_used
          done;
          !ok
          && Slot_table.used_count t = !naive_used
          && Slot_table.free_count t = slots - !naive_used
          && Slot_table.free_slots t
             = List.filter (Slot_table.is_free t) (List.init slots Fun.id))
        ops)

(* Domain pool: for any task list, the pooled map must equal the
   sequential map — same results in the same order — and when tasks
   raise, the pool must re-raise exactly what a left-to-right
   sequential run would (the lowest-index failure). *)
let prop_domain_pool_matches_sequential =
  QCheck.Test.make ~name:"Domain_pool.map = List.map (ordered, any jobs)" ~count:50
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_bound 40) small_int))
    (fun (jobs, xs) ->
      let f x = (x * 7919) lxor (x lsl 3) in
      Noc_util.Domain_pool.map ~jobs f xs = List.map f xs)

let prop_domain_pool_raises_like_sequential =
  QCheck.Test.make ~name:"Domain_pool.map re-raises the lowest-index failure" ~count:50
    QCheck.(triple (int_range 1 6) (int_range 1 40) (small_list small_nat))
    (fun (jobs, n, bad) ->
      let bad = List.map (fun b -> b mod n) bad in
      let xs = List.init n Fun.id in
      let f x = if List.mem x bad then failwith (Printf.sprintf "task %d" x) else x in
      let rec seq_map f = function
        | [] -> []
        | x :: tl ->
          let y = f x in
          y :: seq_map f tl
      in
      let outcome g = try Ok (g ()) with Failure m -> Error m in
      outcome (fun () -> Noc_util.Domain_pool.map ~jobs f xs)
      = outcome (fun () -> seq_map f xs))

(* Tasks that submit batches of their own (an experiment task running
   a min-frequency scan) must degrade to inline runs on whichever
   domain executes them — including the submitter, which helps drain
   its own batch.  This deadlocked when only pool workers carried the
   inline flag. *)
let prop_domain_pool_nested_submission =
  QCheck.Test.make ~name:"nested Domain_pool submissions run inline" ~count:10
    QCheck.(pair (int_range 2 4) (int_range 1 12))
    (fun (jobs, n) ->
      let saved = Noc_util.Domain_pool.default_jobs () in
      Noc_util.Domain_pool.set_default_jobs jobs;
      Fun.protect ~finally:(fun () -> Noc_util.Domain_pool.set_default_jobs saved)
        (fun () ->
          Noc_util.Domain_pool.map
            (fun i -> Noc_util.Domain_pool.map (fun j -> i * j) (List.init 5 Fun.id))
            (List.init n Fun.id)
          = List.init n (fun i -> List.init 5 (fun j -> i * j))))

(* Warm-started exploration must agree with the cold full search on
   what is feasible and how many switches each point needs — the
   warm-start contract behind the --cold escape hatch. *)
let explore_ucs seed =
  let params = { Syn.spread_params with cores = 8; flows_lo = 4; flows_hi = 10 } in
  Syn.generate ~seed ~params ~use_cases:2

let small_axes =
  {
    Noc_power.Design_space.frequencies = [ 250.0; 500.0; 1000.0 ];
    slot_counts = [ 16; 32 ];
    topologies = [ Mesh.Mesh ];
  }

let prop_explore_warm_matches_cold =
  QCheck.Test.make ~name:"explore warm = cold (feasibility and switch counts)" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ucs = explore_ucs seed in
      let groups = List.mapi (fun i _ -> [ i ]) ucs in
      let run warm =
        Noc_power.Design_space.explore ~axes:small_axes ~warm ~config:Config.default ~groups ucs
      in
      let key p =
        Noc_power.Design_space.
          (p.freq_mhz, p.slots, p.topology, p.switches)
      in
      List.map key (run true) = List.map key (run false))

(* The Pareto front is a property of the point set, not of its order:
   permuting the input must yield the same front (as a set) and
   pareto_flags must mark the same points. *)
let prop_pareto_invariant_under_permutation =
  QCheck.Test.make ~name:"pareto front invariant under permutation" ~count:10
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, shuffle_seed) ->
      let ucs = explore_ucs seed in
      let groups = List.mapi (fun i _ -> [ i ]) ucs in
      let points =
        Noc_power.Design_space.explore ~axes:small_axes ~config:Config.default ~groups ucs
      in
      let shuffled =
        let st = Random.State.make [| shuffle_seed |] in
        let a = Array.of_list points in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let key p =
        Noc_power.Design_space.(p.freq_mhz, p.slots, p.topology, p.switches)
      in
      let front ps = List.sort compare (List.map key (Noc_power.Design_space.pareto ps)) in
      let flagged ps =
        let flags = Noc_power.Design_space.pareto_flags ps in
        List.sort compare
          (List.filteri (fun i _ -> flags.(i)) ps |> List.map key)
      in
      front points = front shuffled && flagged points = flagged shuffled
      && front points = flagged points)

(* Tdma.free_starts (rotate-and-AND over masks) vs brute force over
   start_is_free, on random partially filled paths. *)
let prop_free_starts_match_brute_force =
  QCheck.Test.make ~name:"Tdma.free_starts = brute-force start scan" ~count:100
    QCheck.(triple (int_range 1 70) (int_range 1 6) (small_list (pair small_nat small_nat)))
    (fun (slots, hops, reservations) ->
      let tables = Array.init hops (fun _ -> Slot_table.create ~slots) in
      List.iter
        (fun (hop, slot) ->
          let t = tables.(hop mod hops) in
          let slot = slot mod slots in
          if Slot_table.is_free t slot then Slot_table.reserve t ~slot ~owner:7)
        reservations;
      let brute =
        List.filter
          (fun start -> Noc_arch.Tdma.start_is_free ~tables ~start)
          (List.init slots Fun.id)
      in
      Noc_arch.Tdma.free_starts ~tables = brute
      && Noc_arch.Bitmask.to_list (Noc_arch.Tdma.free_start_mask ~tables) = brute)

let () =
  Alcotest.run "cross_module_properties"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_slot_accounting_consistent;
            prop_slot_starts_in_range;
            prop_mapping_deterministic;
            prop_reconfig_symmetric;
            prop_export_json_valid_for_random_designs;
            prop_buffer_totals_cover_every_route;
            prop_latency_bounds_respect_constraints;
            prop_bias_variants_verify;
            prop_domain_pool_matches_sequential;
            prop_domain_pool_raises_like_sequential;
            prop_domain_pool_nested_submission;
            prop_explore_warm_matches_cold;
            prop_pareto_invariant_under_permutation;
            prop_slot_table_mask_agrees;
            prop_free_starts_match_brute_force;
          ] );
    ]
