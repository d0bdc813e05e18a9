module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case

module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_reused = Metrics.counter "remap.reused"
let m_delta = Metrics.counter "remap.delta"
let m_warm = Metrics.counter "remap.warm_placement"
let m_regrown = Metrics.counter "remap.regrown"
let m_failures = Metrics.counter "remap.failures"
let m_dirty_groups = Metrics.counter "remap.dirty_groups"

type path = Reused | Delta of int | Warm_placement | Regrown

type delta = {
  clean : (int list * int list) list;
  dirty : int list list;
  removed : int list list;
}

type outcome = {
  design : Design_flow.t;
  delta : delta;
  path : path;
}

(* --- dirty-set computation --------------------------------------------- *)

(* Bit-exact flow comparison, mirroring Mapping_cache.problem_digest:
   two flows are the same mapping input iff every field (bandwidth and
   latency compared as IEEE bit patterns) coincides.  Names are not
   inputs. *)
let flow_equal (a : Flow.t) (b : Flow.t) =
  a.Flow.src = b.Flow.src
  && a.Flow.dst = b.Flow.dst
  && a.Flow.service = b.Flow.service
  && Int64.equal (Int64.bits_of_float a.Flow.bandwidth) (Int64.bits_of_float b.Flow.bandwidth)
  && Int64.equal (Int64.bits_of_float a.Flow.latency_ns) (Int64.bits_of_float b.Flow.latency_ns)

let content_equal (a : Use_case.t) (b : Use_case.t) =
  a.Use_case.cores = b.Use_case.cores
  && List.compare_lengths a.Use_case.flows b.Use_case.flows = 0
  && List.for_all2 flow_equal a.Use_case.flows b.Use_case.flows

let diff ~old ~all_use_cases ~groups =
  let old_arr = Array.of_list old.Design_flow.all_use_cases in
  let new_arr = Array.of_list all_use_cases in
  let old_groups = Array.of_list (List.map (List.sort compare) old.Design_flow.groups) in
  let used = Array.make (Array.length old_groups) false in
  (* First-fit over old groups in order: deterministic, and the match
     itself is part of the semantics. *)
  let match_group g =
    let n = List.length g in
    let rec scan i =
      if i >= Array.length old_groups then None
      else if
        (not used.(i))
        && List.length old_groups.(i) = n
        && List.for_all2 (fun o nw -> content_equal old_arr.(o) new_arr.(nw)) old_groups.(i) g
      then begin
        used.(i) <- true;
        Some old_groups.(i)
      end
      else scan (i + 1)
    in
    scan 0
  in
  let clean, dirty =
    List.fold_left
      (fun (clean, dirty) g ->
        let g = List.sort compare g in
        match match_group g with
        | Some og -> ((og, g) :: clean, dirty)
        | None -> (clean, g :: dirty))
      ([], []) groups
  in
  let removed =
    List.filteri (fun i _ -> not used.(i)) (Array.to_list old_groups)
  in
  { clean = List.rev clean; dirty = List.rev dirty; removed }

(* --- assembly ----------------------------------------------------------- *)

(* Rebuild a resource state under a new use-case id from a reservation
   dump: exactly Resources.restore, the codec's own round-trip door, so
   a retained group's slot tables are byte-identical to the old
   design's. *)
let restate ~config ~mesh ~use_case st =
  Resources.restore ~config ~mesh ~use_case
    ~ni_budget:(Resources.ni_budget_snapshot st)
    ~reservations:(Resources.reservations st)

(* Stitch retained groups and freshly-routed sub-problems into one
   mapping on the old mesh and placement.  [sub_results] pairs each
   dirty group (ascending new ids) with its single-group sub-mapping
   whose use-cases are locally renumbered 0..k-1. *)
let assemble_mapping ~(old_m : Mapping.t) ~n_new ~groups ~clean ~sub_results =
  let config = old_m.Mapping.config and mesh = old_m.Mapping.mesh in
  let states = Array.make n_new None in
  let new_of_old = Hashtbl.create 16 in
  List.iter
    (fun (og, ng) ->
      List.iter2
        (fun o n ->
          Hashtbl.replace new_of_old o n;
          states.(n) <- Some (restate ~config ~mesh ~use_case:n old_m.Mapping.states.(o)))
        og ng)
    clean;
  List.iter
    (fun (g, (sub : Mapping.t)) ->
      List.iteri
        (fun i n -> states.(n) <- Some (restate ~config ~mesh ~use_case:n sub.Mapping.states.(i)))
        g)
    sub_results;
  let states =
    Array.mapi
      (fun i s ->
        match s with Some s -> s | None -> invalid_arg (Printf.sprintf "remap: use-case %d unassembled" i))
      states
  in
  (* Retained routes keep their original relative order (renumbered);
     fresh routes follow in dirty-group order, so the order — and the
     codec bytes — are pinned whether sub-problems hit the cache or not. *)
  let retained =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt new_of_old r.Route.use_case with
        | Some n -> Some { r with Route.use_case = n }
        | None -> None)
      old_m.Mapping.routes
  in
  let fresh =
    List.concat_map
      (fun (g, (sub : Mapping.t)) ->
        let garr = Array.of_list g in
        List.map (fun r -> { r with Route.use_case = garr.(r.Route.use_case) }) sub.Mapping.routes)
      sub_results
  in
  {
    Mapping.config;
    mesh;
    placement = Array.copy old_m.Mapping.placement;
    routes = retained @ fresh;
    states;
    groups;
  }

(* --- the remap decision chain ------------------------------------------ *)

let remap_decide ?config ?(prune = true) ~old spec =
  match spec.Design_flow.use_cases with
  | [] -> Error "remap: no use-cases"
  | first :: _ -> (
    let old_m = old.Design_flow.mapping in
    let config = Option.value config ~default:old_m.Mapping.config in
    let all_new, compounds, groups_new = Design_flow.expand spec in
    let delta = diff ~old ~all_use_cases:all_new ~groups:groups_new in
    let n_new = List.length all_new in
    let cores = first.Use_case.cores in
    let finish path mapping =
      let design =
        Design_flow.assemble ~spec ~all_use_cases:all_new ~compounds ~groups:groups_new mapping
      in
      { design; delta; path }
    in
    (* Stitched designs get a spliced phase-4 report: fresh checks for
       the freshly-routed dirty components (plus the global invariants),
       the old report's violations — ids renumbered — for retained
       components, whose routes and slot tables are byte-identical to
       the old design's.  Re-running their checks would cost more than
       the routing saved; [checks] counts the checks actually executed. *)
    let finish_spliced path mapping =
      let fresh = Verify.verify ~only:(List.concat delta.dirty) mapping all_new in
      let renum = Hashtbl.create 32 in
      List.iter
        (fun (og, ng) -> List.iter2 (fun o n -> Hashtbl.replace renum o n) og ng)
        delta.clean;
      let inherited =
        List.filter_map
          (fun (v : Verify.violation) ->
            match Hashtbl.find_opt renum v.Verify.use_case with
            | Some n -> Some { v with Verify.use_case = n }
            | None -> None)
          old.Design_flow.report.Verify.violations
      in
      let violations =
        List.stable_sort
          (fun (a : Verify.violation) b -> compare a.Verify.use_case b.Verify.use_case)
          (inherited @ fresh.Verify.violations)
      in
      let report = { Verify.checks = fresh.Verify.checks; violations } in
      let design =
        Design_flow.package ~spec ~all_use_cases:all_new ~compounds ~groups:groups_new
          ~report mapping
      in
      { design; delta; path }
    in
    (* The certificate's bounds are monotone lower bounds any
       successful mapping must satisfy, so when it refutes the retained
       mesh no delta or warm-placement assembly at that size can be
       valid — skipping straight to the growth search preserves the
       result.  Under --no-prune the check is off and the attempts
       themselves decide, exactly like map_design. *)
    let frame_admitted =
      lazy
        ((not prune)
        ||
        let cert = Feasibility.certify ~config ~groups:groups_new all_new in
        Feasibility.admits_mesh cert old_m.Mapping.mesh)
    in
    let regrow () =
      let cache = Mapping_cache.design_cache ~config ~groups:groups_new all_new in
      match Mapping.map_design ~config ~prune ?cache ~groups:groups_new all_new with
      | Ok m -> Ok (finish Regrown m)
      | Error failure ->
        Error (Format.asprintf "%s: %a" spec.Design_flow.name Mapping.pp_failure failure)
    in
    let placement_fits =
      cores = Array.length old_m.Mapping.placement
      && Mesh.kind old_m.Mapping.mesh = config.Config.topology
    in
    let warm () =
      if not (placement_fits && Lazy.force frame_admitted) then regrow ()
      else
        match
          Mapping_cache.with_placement ~config ~mesh:old_m.Mapping.mesh ~groups:groups_new
            ~placement:old_m.Mapping.placement all_new
        with
        | Ok m -> Ok (finish Warm_placement m)
        | Error _ -> regrow ()
    in
    let same_frame = placement_fits && config = old_m.Mapping.config in
    (* Phase-4 gate for the cheap paths: a fully verified old design
       must stay fully verified after assembly.  When the old design
       itself ships with reported violations ([run] stores the report
       but does not gate on it), the retained groups inherit those
       violations verbatim — demanding a clean report would reject
       every reuse for defects the remap did not introduce, so the
       assembly is held to the old design's own standard instead. *)
    let acceptable design = Design_flow.verified design || not (Design_flow.verified old) in
    if not same_frame then warm ()
    else if delta.dirty = [] then begin
      (* Pure removal / renumbering: repackage without routing.  The
         assembled design still goes through phase-4 verification; if
         it is worse than the old design's, degrade to the fallbacks. *)
      let o =
        finish_spliced Reused
          (assemble_mapping ~old_m ~n_new ~groups:groups_new ~clean:delta.clean ~sub_results:[])
      in
      if acceptable o.design then Ok o else warm ()
    end
    else if not (Lazy.force frame_admitted) then warm ()
    else begin
      (* Route each dirty group as an independent single-group problem
         on the retained placement.  Group-local sub-problems are exact
         because routing consults only the group members' own resource
         states; the sub-problem digest is what memoizes components
         across churn steps. *)
      let new_arr = Array.of_list all_new in
      let rec route_dirty acc = function
        | [] -> Some (List.rev acc)
        | g :: rest -> (
          let sub_ucs =
            List.mapi
              (fun i n -> Use_case.rename new_arr.(n) ~id:i ~name:new_arr.(n).Use_case.name)
              g
          in
          let sub_groups = [ List.init (List.length g) Fun.id ] in
          match
            Mapping_cache.with_placement ~config ~mesh:old_m.Mapping.mesh ~groups:sub_groups
              ~placement:old_m.Mapping.placement sub_ucs
          with
          | Ok sub -> route_dirty ((g, sub) :: acc) rest
          | Error _ -> None)
      in
      match route_dirty [] delta.dirty with
      | None -> warm ()
      | Some sub_results ->
        let o =
          finish_spliced
            (Delta (List.length delta.dirty))
            (assemble_mapping ~old_m ~n_new ~groups:groups_new ~clean:delta.clean ~sub_results)
        in
        if acceptable o.design then Ok o else warm ()
    end)

(* Decision-path counters are charged on the final verdict only: the
   chain may build a spliced candidate and then discard it at the
   [acceptable] gate, and a discarded candidate is not an outcome. *)
let remap ?config ?prune ~old spec =
  let decide () = remap_decide ?config ?prune ~old spec in
  let result =
    if Tracer.enabled () then
      Tracer.with_span ~cat:"remap"
        ~args:[ ("to", Tracer.Str spec.Design_flow.name) ]
        "remap" decide
    else decide ()
  in
  (match result with
  | Ok o ->
    Metrics.incr
      (match o.path with
      | Reused -> m_reused
      | Delta _ -> m_delta
      | Warm_placement -> m_warm
      | Regrown -> m_regrown);
    Metrics.incr ~by:(List.length o.delta.dirty) m_dirty_groups
  | Error _ -> Metrics.incr m_failures);
  result
