module Use_case = Noc_traffic.Use_case
module Mesh = Noc_arch.Mesh
module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_runs = Metrics.counter "flow.runs"
let m_verify_checks = Metrics.counter "verify.checks"

type spec = {
  name : string;
  use_cases : Use_case.t list;
  parallel : int list list;
  smooth : (int * int) list;
}

type t = {
  spec : spec;
  all_use_cases : Use_case.t list;
  compounds : Compound.t list;
  groups : int list list;
  mapping : Mapping.t;
  report : Verify.report;
  refinement : Refine.outcome option;
}

let spec_of_use_cases ~name use_cases = { name; use_cases; parallel = []; smooth = [] }

(* Phases 1 + 2 (parallel-mode generation, switching-aware grouping),
   exposed so static analysis can certify the exact use-case set and
   groups the mapper will see. *)
let expand spec =
  let all, compounds = Compound.generate spec.use_cases ~parallel:spec.parallel in
  let switching = Switching.create ~use_cases:(List.length all) ~smooth:spec.smooth in
  List.iter (Switching.add_compound switching) compounds;
  (all, compounds, Switching.groups switching)

(* Phase 4 packaging: verify a finished mapping and assemble the
   design record around it.  Exposed so the incremental remapper can
   produce designs whose verification is exactly the one [run] would
   have performed. *)
let package ?refinement ~spec ~all_use_cases ~compounds ~groups ~report mapping =
  { spec; all_use_cases; compounds; groups; mapping; report; refinement }

let assemble ?refinement ~spec ~all_use_cases ~compounds ~groups mapping =
  let report =
    Tracer.with_span ~cat:"flow" "phase:verify" (fun () -> Verify.verify mapping all_use_cases)
  in
  Metrics.incr ~by:report.Verify.checks m_verify_checks;
  package ?refinement ~spec ~all_use_cases ~compounds ~groups ~report mapping

let run ?config ?prune ?(refine = false) spec =
  match spec.use_cases with
  | [] -> Error "design flow: no use-cases"
  | _ ->
    Metrics.incr m_runs;
    Tracer.with_span ~cat:"flow"
      ~args:[ ("design", Tracer.Str spec.name) ]
      "design_flow"
      (fun () ->
        let all, compounds, groups =
          Tracer.with_span ~cat:"flow" "phase:expand" (fun () -> expand spec)
        in
        (* Phase 3: unified mapping and configuration. *)
        let cache = Mapping_cache.design_cache ?config ~groups all in
        match
          Tracer.with_span ~cat:"flow" "phase:map" (fun () ->
              Mapping.map_design ?config ?prune ?cache ~groups all)
        with
        | Error failure -> Error (Format.asprintf "%s: %a" spec.name Mapping.pp_failure failure)
        | Ok mapping ->
          let refinement =
            if refine then
              Some (Tracer.with_span ~cat:"flow" "phase:refine" (fun () -> Refine.anneal mapping all))
            else None
          in
          let mapping =
            match refinement with Some o -> o.Refine.result | None -> mapping
          in
          Ok (assemble ?refinement ~spec ~all_use_cases:all ~compounds ~groups mapping))

let switch_count t = Mapping.switch_count t.mapping

let verified t = Verify.ok t.report

let reconfiguration t = Reconfig.analyze t.mapping

let pp_summary ppf t =
  let m = t.mapping in
  Format.fprintf ppf
    "@[<v>design %s: %d base + %d compound use-cases, %d groups@ mapped onto %a@ %a@]"
    t.spec.name
    (List.length t.spec.use_cases)
    (List.length t.compounds) (List.length t.groups) Mesh.pp m.Mapping.mesh Verify.pp_report
    t.report
