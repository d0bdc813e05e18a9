(* The incremental remapper's correctness bar: across random
   add/remove/modify churn sequences the remapper serving sub-problems
   from the cache and the oracle computing every sub-problem directly
   (the cache off) produce byte-identical designs (via the canonical
   codec), with pruning on or off; clean groups survive a delta
   byte-for-byte; and the fallback chain (reused -> delta -> warm
   placement -> regrown) degrades deterministically. *)

module Config = Noc_arch.Noc_config
module Route = Noc_arch.Route
module Flow = Noc_traffic.Flow
module U = Noc_traffic.Use_case
module DF = Noc_core.Design_flow
module Remap = Noc_core.Remap
module Mapping = Noc_core.Mapping
module Codec = Noc_core.Mapping_codec
module MC = Noc_core.Mapping_cache
module Resources = Noc_core.Resources
module DS = Noc_power.Design_space
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs

let small_params = { Syn.spread_params with Syn.cores = 8; flows_lo = 3; flows_hi = 8 }

let encode_exn m =
  match Codec.encode m with Some b -> b | None -> failwith "mapping not encodable"

let with_cache enabled f =
  let prev = MC.enabled () in
  MC.set_enabled enabled;
  Fun.protect ~finally:(fun () -> MC.set_enabled prev) f

let must_run spec = match DF.run spec with Ok d -> d | Error e -> failwith e

(* --- spec churn operators ----------------------------------------------- *)

let renumber ucs = List.mapi (fun i u -> U.rename u ~id:i ~name:u.U.name) ucs

let scale_uc k factor (spec : DF.spec) =
  { spec with
    DF.use_cases =
      List.map
        (fun u ->
          if u.U.id <> k then u
          else
            U.create ~id:k ~name:u.U.name ~cores:u.U.cores
              (List.map
                 (fun fl ->
                   Flow.v
                     ?latency_ns:
                       (if fl.Flow.latency_ns = infinity then None else Some fl.Flow.latency_ns)
                     ~service:fl.Flow.service ~src:fl.Flow.src ~dst:fl.Flow.dst
                     (factor *. fl.Flow.bandwidth))
                 u.U.flows))
        spec.DF.use_cases }

let remove_uc k (spec : DF.spec) =
  let shift i = if i > k then i - 1 else i in
  { spec with
    DF.use_cases = renumber (List.filter (fun u -> u.U.id <> k) spec.DF.use_cases);
    parallel =
      List.filter_map
        (fun set ->
          let set = List.map shift (List.filter (fun i -> i <> k) set) in
          if List.length set >= 2 then Some set else None)
        spec.DF.parallel;
    smooth =
      List.filter_map
        (fun (a, b) -> if a = k || b = k then None else Some (shift a, shift b))
        spec.DF.smooth }

let add_uc ~seed (spec : DF.spec) =
  let fresh = List.hd (Syn.generate ~seed ~params:small_params ~use_cases:1) in
  let n = List.length spec.DF.use_cases in
  { spec with
    DF.use_cases = spec.DF.use_cases @ [ U.rename fresh ~id:n ~name:(Printf.sprintf "added-%d" seed) ] }

let add_smooth (a, b) (spec : DF.spec) =
  if a = b || List.mem (a, b) spec.DF.smooth || List.mem (b, a) spec.DF.smooth then spec
  else { spec with DF.smooth = spec.DF.smooth @ [ (a, b) ] }

let random_step rng spec =
  let n = List.length spec.DF.use_cases in
  match Random.State.int rng 5 with
  | 0 -> add_uc ~seed:(Random.State.int rng 1_000_000) spec
  | 1 when n > 1 -> remove_uc (Random.State.int rng n) spec
  | (2 | 3) when n > 0 ->
    scale_uc (Random.State.int rng n)
      [| 0.5; 0.8; 1.25 |].(Random.State.int rng 3)
      spec
  | _ when n >= 2 -> add_smooth (Random.State.int rng n, Random.State.int rng n) spec
  | _ -> spec

(* --- the 500-sequence byte-identity property ---------------------------- *)

let bytes_of = function
  | Ok (o : Remap.outcome) -> "ok:" ^ encode_exn o.Remap.design.DF.mapping
  | Error (_ : string) -> "error"

let path_tag (o : Remap.outcome) =
  match o.Remap.path with
  | Remap.Reused -> "reused"
  | Remap.Delta n -> Printf.sprintf "delta:%d" n
  | Remap.Warm_placement -> "warm"
  | Remap.Regrown -> "regrown"

(* Clean groups must survive the Reused/Delta paths byte-for-byte:
   identical reservation dumps and identical routes modulo the use-case
   renumbering. *)
let clean_retained ~(old : DF.t) (o : Remap.outcome) =
  match o.Remap.path with
  | Remap.Warm_placement | Remap.Regrown -> true
  | Remap.Reused | Remap.Delta _ ->
    let old_m = old.DF.mapping and new_m = o.Remap.design.DF.mapping in
    let anon routes = List.map (fun r -> { r with Route.use_case = -1 }) routes in
    List.for_all
      (fun (og, ng) ->
        List.for_all2
          (fun ouc nuc ->
            Resources.reservations old_m.Mapping.states.(ouc)
            = Resources.reservations new_m.Mapping.states.(nuc)
            && anon (Mapping.routes_of_use_case old_m ouc)
               = anon (Mapping.routes_of_use_case new_m nuc))
          og ng)
      o.Remap.delta.Remap.clean

let prop_churn_byte_identity =
  QCheck.Test.make
    ~name:"churn: incremental == reference bytes (cache on/off, prune on/off)" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n0 = 2 + Random.State.int rng 2 in
      let ucs =
        Syn.generate ~seed:(Random.State.int rng 1_000_000) ~params:small_params ~use_cases:n0
      in
      let spec0 = DF.spec_of_use_cases ~name:"churn" ucs in
      match DF.run spec0 with
      | Error _ -> QCheck.assume_fail ()
      | Ok d0 ->
        let steps = 1 + Random.State.int rng 2 in
        let rec go spec (inc, nc, np) k =
          if k = 0 then true
          else begin
            let spec = random_step rng spec in
            let r_inc = with_cache true (fun () -> Remap.remap ~old:inc spec) in
            let r_nc = with_cache false (fun () -> Remap.remap ~old:nc spec) in
            let r_np = with_cache false (fun () -> Remap.remap ~prune:false ~old:np spec) in
            let b = bytes_of r_inc in
            b = bytes_of r_nc && b = bytes_of r_np
            &&
            match (r_inc, r_nc, r_np) with
            | Ok a, Ok c, Ok d ->
              path_tag a = path_tag c
              && path_tag a = path_tag d
              && clean_retained ~old:inc a
              && go spec (a.Remap.design, c.Remap.design, d.Remap.design) (k - 1)
            | Error _, Error _, Error _ -> true
            | _ -> false
          end
        in
        go spec0 (d0, d0, d0) steps)

(* --- unit coverage of the decision chain -------------------------------- *)

let spec3 ~seed = DF.spec_of_use_cases ~name:"unit" (Syn.generate ~seed ~params:small_params ~use_cases:3)

let remap_exn ?config ?prune ~old spec =
  match Remap.remap ?config ?prune ~old spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "remap failed: %s" e

let test_modify_takes_delta_path () =
  let spec = spec3 ~seed:42 in
  let old = must_run spec in
  let churned = scale_uc 1 0.8 spec in
  let o = with_cache false (fun () -> remap_exn ~old churned) in
  Alcotest.(check string) "delta path" "delta:1" (path_tag o);
  Alcotest.(check bool) "verified" true (DF.verified o.Remap.design);
  Alcotest.(check int) "two clean groups" 2 (List.length o.Remap.delta.Remap.clean);
  Alcotest.(check int) "one removed group" 1 (List.length o.Remap.delta.Remap.removed);
  Alcotest.(check bool) "mesh retained" true
    (old.DF.mapping.Mapping.mesh = o.Remap.design.DF.mapping.Mapping.mesh);
  Alcotest.(check bool) "clean groups byte-retained" true (clean_retained ~old o)

let test_removal_takes_reused_path () =
  let spec = spec3 ~seed:42 in
  let old = must_run spec in
  let o = with_cache false (fun () -> remap_exn ~old (remove_uc 2 spec)) in
  Alcotest.(check string) "reused path" "reused" (path_tag o);
  Alcotest.(check bool) "verified" true (DF.verified o.Remap.design);
  Alcotest.(check int) "no dirty groups" 0 (List.length o.Remap.delta.Remap.dirty);
  Alcotest.(check bool) "mesh retained (never shrunk)" true
    (old.DF.mapping.Mapping.mesh = o.Remap.design.DF.mapping.Mapping.mesh)

let test_rename_only_is_clean () =
  let spec = spec3 ~seed:43 in
  let old = must_run spec in
  let renamed =
    { spec with
      DF.use_cases = List.map (fun u -> U.rename u ~id:u.U.id ~name:(u.U.name ^ "-v2")) spec.DF.use_cases }
  in
  let o = with_cache false (fun () -> remap_exn ~old renamed) in
  Alcotest.(check string) "names are not mapping inputs" "reused" (path_tag o);
  Alcotest.(check string) "same mapping bytes" (encode_exn old.DF.mapping)
    (encode_exn o.Remap.design.DF.mapping)

let test_config_change_falls_back () =
  let spec = spec3 ~seed:44 in
  let old = must_run spec in
  let config = { old.DF.mapping.Mapping.config with Config.freq_mhz = 400.0 } in
  let churned = scale_uc 0 1.25 spec in
  let inc = with_cache true (fun () -> Remap.remap ~config ~old churned) in
  let reference = with_cache false (fun () -> Remap.remap ~config ~old churned) in
  Alcotest.(check string) "cache on and off agree under a config change" (bytes_of inc)
    (bytes_of reference);
  match inc with
  | Error e -> Alcotest.failf "remap failed: %s" e
  | Ok o ->
    Alcotest.(check bool) "retained tables are invalid under a new config" true
      (match o.Remap.path with Remap.Warm_placement | Remap.Regrown -> true | _ -> false)

let test_infeasible_delta_agrees () =
  (* With NI links constrained, a flow beyond the NI budget cannot be
     admitted anywhere — not even by co-locating its endpoints on one
     switch — so every fallback must reject it. *)
  let config = { Config.default with Config.constrain_ni_links = true } in
  let spec = spec3 ~seed:45 in
  let old = match DF.run ~config spec with Ok d -> d | Error e -> failwith e in
  let monster =
    { spec with
      DF.use_cases =
        spec.DF.use_cases
        @ [ U.create ~id:3 ~name:"monster" ~cores:8 [ Flow.v ~src:0 ~dst:1 1.0e9 ] ] }
  in
  let inc = with_cache true (fun () -> Remap.remap ~config ~old monster) in
  let reference = with_cache false (fun () -> Remap.remap ~config ~old monster) in
  Alcotest.(check bool) "incremental rejects" true (Result.is_error inc);
  Alcotest.(check bool) "reference rejects" true (Result.is_error reference)

(* A spec sequence folded through the remapper: each step remaps
   against its predecessor's design. *)
let test_churn_driver () =
  let spec0 = spec3 ~seed:46 in
  let s1 = scale_uc 1 0.8 spec0 in
  let s2 = remove_uc 0 s1 in
  with_cache false (fun () ->
      let d0 = must_run spec0 in
      let o1 = remap_exn ~old:d0 s1 in
      let o2 = remap_exn ~old:o1.Remap.design s2 in
      Alcotest.(check string) "first step is a delta" "delta:1" (path_tag o1);
      Alcotest.(check string) "second step is a pure removal" "reused" (path_tag o2))

let test_cache_memoizes_across_churn () =
  with_cache true (fun () ->
      MC.clear ();
      let spec = spec3 ~seed:47 in
      let old = must_run spec in
      let churned = scale_uc 2 0.5 spec in
      let first = remap_exn ~old churned in
      let before = (MC.stats ()).Noc_util.Result_cache.memory_hits in
      let second = remap_exn ~old churned in
      let after = (MC.stats ()).Noc_util.Result_cache.memory_hits in
      Alcotest.(check string) "replayed result is byte-identical"
        (encode_exn first.Remap.design.DF.mapping)
        (encode_exn second.Remap.design.DF.mapping);
      Alcotest.(check bool) "second churn step hits the sub-problem digest" true (after > before))

(* --- explore_seeded: sweeps over a spec family churn, not restart ------- *)

(* The churned spec scales every bandwidth by 0.9 and is swept under
   [config].  Under the first sweep's config most seeds' sizes stay
   feasible (warm retries run); with fewer NIs per switch the
   certificate rejects some seeds' sizes, where the [seeded] hook must
   never run.  Either way the sweep equals cold.  Returns whether some
   inherited seed sits on a rejected size. *)
let check_explore_seeded_inherited ~config () =
  let axes =
    { DS.frequencies = [ 500.0; 1000.0 ]; slot_counts = [ 32 ]; topologies = [ Noc_arch.Mesh.Mesh ] }
  in
  let ucs = Syn.generate ~seed:48 ~params:small_params ~use_cases:2 in
  let groups = List.mapi (fun i _ -> [ i ]) ucs in
  let first_points, seeds = DS.explore_seeded ~axes ~config:Config.default ~groups ucs in
  let churned =
    List.map
      (fun u ->
        U.create ~id:u.U.id ~name:u.U.name ~cores:u.U.cores
          (List.map
             (fun fl ->
               Flow.v
                 ?latency_ns:(if fl.Flow.latency_ns = infinity then None else Some fl.Flow.latency_ns)
                 ~service:fl.Flow.service ~src:fl.Flow.src ~dst:fl.Flow.dst
                 (0.9 *. fl.Flow.bandwidth))
             u.U.flows))
      ucs
  in
  let inherited_points, _ =
    DS.explore_seeded ~axes ~inherited:seeds ~config ~groups churned
  in
  let cold_points = DS.explore ~axes ~config ~groups churned in
  let strip (p : DS.point) = { p with DS.start = DS.Cold } in
  Alcotest.(check bool) "inherited seeds never change the sweep's points" true
    (List.map strip inherited_points = List.map strip cold_points);
  (* A seed's size is the growth size of its point's switch count. *)
  List.exists
    (fun (p : DS.point) ->
      match p.DS.switches with
      | None -> false
      | Some n ->
        let cfg = { config with Config.freq_mhz = p.DS.freq_mhz; slots = p.DS.slots } in
        let cert = Noc_core.Feasibility.certify ~config:cfg ~groups churned in
        List.exists
          (fun (w, h) -> w * h = n && not (Noc_core.Feasibility.admits cert ~width:w ~height:h))
          (Noc_arch.Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim))
    first_points

let test_explore_seeded_inherited () =
  ignore (check_explore_seeded_inherited ~config:Config.default ());
  Alcotest.(check bool) "fewer NIs per switch put some seed on a rejected size" true
    (check_explore_seeded_inherited ~config:{ Config.default with nis_per_switch = 2 } ())

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  with_cache false (fun () ->
      Alcotest.run "remap"
        [
          ( "property",
            [ qcheck prop_churn_byte_identity ] );
          ( "paths",
            [
              Alcotest.test_case "modify -> delta" `Quick test_modify_takes_delta_path;
              Alcotest.test_case "remove -> reused" `Quick test_removal_takes_reused_path;
              Alcotest.test_case "rename -> reused" `Quick test_rename_only_is_clean;
              Alcotest.test_case "config change -> fallback" `Quick test_config_change_falls_back;
              Alcotest.test_case "infeasible delta agrees" `Quick test_infeasible_delta_agrees;
              Alcotest.test_case "churn driver" `Quick test_churn_driver;
              Alcotest.test_case "cache memoizes sub-problems" `Quick
                test_cache_memoizes_across_churn;
            ] );
          ( "design-space",
            [ Alcotest.test_case "inherited seeds" `Quick test_explore_seeded_inherited ] );
        ])
