module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Mapping = Noc_core.Mapping
module Domain_pool = Noc_util.Domain_pool
module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_points = Metrics.counter "explore.points"
let m_warm_hits = Metrics.counter "explore.warm_hits"
let m_infeasible = Metrics.counter "explore.infeasible"

type axes = {
  frequencies : Noc_util.Units.frequency list;
  slot_counts : int list;
  topologies : Mesh.kind list;
}

let default_axes =
  { frequencies = [ 250.0; 500.0; 1000.0 ]; slot_counts = [ 16; 32; 64 ]; topologies = [ Mesh.Mesh ] }

type start = Cold | Warm

type point = {
  freq_mhz : Noc_util.Units.frequency;
  slots : int;
  topology : Mesh.kind;
  switches : int option;
  area_mm2 : Noc_util.Units.area option;
  power_mw : float option;
  start : start;
}

(* A solved point's reusable state: its mesh dimensions and core
   placement.  The placement array is shared read-only across waves
   ([Mapping.run] copies its initial placement). *)
type seed = { w : int; h : int; placement : int array }

let point_of_mapping ~freq ~slots ~topology ~start (m : Mapping.t) =
  let p =
    {
      freq_mhz = freq;
      slots;
      topology;
      switches = Some (Mapping.switch_count m);
      area_mm2 = Some (Area_model.noc_area m);
      power_mw = Some (Power_model.noc_power m).Power_model.total_mw;
      start;
    }
  in
  let mesh = m.Mapping.mesh in
  (p, Some { w = Mesh.width mesh; h = Mesh.height mesh; placement = m.Mapping.placement })

let infeasible ~freq ~slots ~topology =
  ( { freq_mhz = freq; slots; topology; switches = None; area_mm2 = None; power_mw = None; start = Cold },
    None )

(* Warm start: the point runs the normal growth search, whose
   [seeded] hook retries the neighbour's placement at the neighbour's
   size — routing only, no placement search — before the normal
   Compact/Spread attempt there.  Every smaller size is still attempted
   (so the result stays the smallest feasible size the cold search
   would find); flat regions of the sweep, where neighbouring points
   land on the same mesh, skip the whole placement search, and a
   failed retry degrades to the exact cold behaviour. *)
let solve_point ~config ~groups ~use_cases ~prune ~freq ~slots ~topology seed_opt =
  let cfg = { config with Config.freq_mhz = freq; slots; topology } in
  (* Seeds inherited from a sweep over a different spec are only valid
     when the core count still matches; a stale one is dropped, which
     degrades the point to the exact cold behaviour. *)
  let seed_opt =
    match seed_opt with
    | Some s
      when Array.length s.placement <> (List.hd use_cases).Noc_traffic.Use_case.cores ->
      None
    | s -> s
  in
  let warm = ref false in
  let seeded seed ~width ~height =
    if width <> seed.w || height <> seed.h then None
    else
      let mesh = Mesh.create_kind ~kind:topology ~width ~height in
      match
        Noc_core.Mapping_cache.with_placement ~config:cfg ~mesh ~groups
          ~placement:seed.placement use_cases
      with
      | Ok m ->
        warm := true;
        Some m
      | Error _ -> None
  in
  let cache = Noc_core.Mapping_cache.design_cache ~config:cfg ~groups use_cases in
  match
    Mapping.map_design ~config:cfg ~prune ?cache ?seeded:(Option.map seeded seed_opt) ~groups
      use_cases
  with
  | Ok m -> point_of_mapping ~freq ~slots ~topology ~start:(if !warm then Warm else Cold) m
  | Error _ -> infeasible ~freq ~slots ~topology

(* One span per sweep point: on a pooled sweep each point runs on
   whichever domain claimed it, so the trace shows the wave structure
   directly (one row per worker, one box per point). *)
let solve ~config ~groups ~use_cases ~prune ~freq ~slots ~topology seed_opt =
  Metrics.incr m_points;
  let run () = solve_point ~config ~groups ~use_cases ~prune ~freq ~slots ~topology seed_opt in
  let ((p, _) as result) =
    if Tracer.enabled () then
      Tracer.with_span ~cat:"explore"
        ~args:
          [
            ("freq_mhz", Tracer.Float freq);
            ("slots", Tracer.Int slots);
            ("topology", Tracer.Str (match topology with Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"));
            ("seeded", Tracer.Bool (seed_opt <> None));
          ]
        "explore:point" run
    else run ()
  in
  (match p.switches with None -> Metrics.incr m_infeasible | Some _ -> ());
  (match p.start with Warm -> Metrics.incr m_warm_hits | Cold -> ());
  result

let explore_seeded ?(axes = default_axes) ?jobs ?(warm = true) ?(prune = true) ?inherited
    ~config ~groups use_cases =
  let topos = Array.of_list axes.topologies in
  let slot_axis = Array.of_list (List.sort compare axes.slot_counts) in
  let freq_axis = Array.of_list (List.sort compare axes.frequencies) in
  let nt = Array.length topos and ns = Array.length slot_axis and nf = Array.length freq_axis in
  let idx ti si fi = ((ti * ns) + si) * nf + fi in
  let results = Array.make (nt * ns * nf) None in
  let seeds : seed option array = Array.make (nt * ns * nf) None in
  (* Seeds carried over from a previous sweep of the same axes (a
     churned spec of the same SoC): consulted only when this sweep has
     no solved neighbour yet, i.e. the first wave. *)
  let inherited_for cell =
    match inherited with
    | Some arr when cell < Array.length arr -> arr.(cell)
    | _ -> None
  in
  (* Nearest already-solved neighbour of (ti, si, fi): same topology,
     smallest slot distance, then smallest frequency distance.  Only
     earlier waves are consulted, so the choice — and with it the whole
     sweep — is independent of [jobs]. *)
  let seed_for ti si fi =
    let best = ref None in
    for sj = 0 to ns - 1 do
      for fj = 0 to nf - 1 do
        match seeds.(idx ti sj fj) with
        | Some seed -> (
          let d = (abs (si - sj), abs (fi - fj), sj, fj) in
          match !best with
          | Some (d', _) when compare d' d <= 0 -> ()
          | _ -> best := Some (d, seed))
        | None -> ()
      done
    done;
    match !best with Some (_, seed) -> Some seed | None -> inherited_for (idx ti si fi)
  in
  (* Waves along the frequency axis: every (topology, slots) pair of
     one frequency runs concurrently; later waves warm-start from the
     results of earlier ones. *)
  for fi = 0 to nf - 1 do
    let cells = List.concat_map (fun ti -> List.init ns (fun si -> (ti, si))) (List.init nt Fun.id) in
    let tasks =
      List.map
        (fun (ti, si) ->
          let seed = if warm then seed_for ti si fi else None in
          ((ti, si), seed))
        cells
    in
    let solved =
      Domain_pool.map ?jobs
        (fun ((ti, si), seed) ->
          solve ~config ~groups ~use_cases ~prune ~freq:freq_axis.(fi)
            ~slots:slot_axis.(si) ~topology:topos.(ti) seed)
        tasks
    in
    List.iter2
      (fun ((ti, si), _) (p, seed) ->
        results.(idx ti si fi) <- Some p;
        seeds.(idx ti si fi) <- seed)
      tasks solved
  done;
  let points =
    List.concat_map
      (fun ti ->
        List.concat_map
          (fun si ->
            List.map (fun fi -> Option.get results.(idx ti si fi)) (List.init nf Fun.id))
          (List.init ns Fun.id))
      (List.init nt Fun.id)
  in
  (points, seeds)

let explore ?axes ?jobs ?warm ?prune ~config ~groups use_cases =
  fst (explore_seeded ?axes ?jobs ?warm ?prune ~config ~groups use_cases)

let dominates a b =
  (* a dominates b in (area, power) *)
  match (a.area_mm2, a.power_mw, b.area_mm2, b.power_mw) with
  | Some aa, Some ap, Some ba, Some bp -> aa <= ba && ap <= bp && (aa < ba || ap < bp)
  | _ -> false

(* Front membership by position, not physical identity: [List.memq]
   would silently unmark every member if points were ever rebuilt
   (copied, serialized, mapped) between [pareto] and the caller. *)
let pareto_flags points =
  let arr = Array.of_list points in
  Array.map
    (fun p ->
      p.switches <> None && not (Array.exists (fun q -> q.switches <> None && dominates q p) arr))
    arr

let pareto points =
  let flags = pareto_flags points in
  List.filteri (fun i _ -> flags.(i)) points

let print points =
  let flags = pareto_flags points in
  let t =
    Noc_util.Ascii_table.create
      ~header:
        [ "topology"; "slots"; "freq (MHz)"; "switches"; "area (mm2)"; "power (mW)"; "start"; "pareto" ]
  in
  List.iteri
    (fun i p ->
      Noc_util.Ascii_table.add_row t
        [
          (match p.topology with Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus");
          string_of_int p.slots;
          Printf.sprintf "%.0f" p.freq_mhz;
          (match p.switches with Some s -> string_of_int s | None -> "infeasible");
          (match p.area_mm2 with Some a -> Printf.sprintf "%.3f" a | None -> "-");
          (match p.power_mw with Some w -> Printf.sprintf "%.1f" w | None -> "-");
          (match p.start with Warm -> "warm" | Cold -> "cold");
          (if flags.(i) then "*" else "");
        ])
    points;
  Noc_util.Ascii_table.print t
