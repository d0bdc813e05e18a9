(* The straightforward formulation of Algorithm 2 that
   [Noc_core.Mapping] replaced, verbatim where the two differ: the
   linear [pick_item] scan of the worklist, per-pair list filtering of
   the pending flows and a plain growth loop.  The rest of an attempt
   (placement scoring, admission budgets, group-shared routing) is the
   shipped engine's, copied, so a divergence between the two designs
   points at the shipped worklist heaps or pair index. *)

module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case
module Mapping = Noc_core.Mapping
module Path_select = Noc_core.Path_select
module Resources = Noc_core.Resources
module Feasibility = Noc_core.Feasibility

exception Fail of string

type item = {
  uc : int;
  flow : Flow.t;
  mutable routed : bool;
}

(* Algorithm 2 step 3: highest-bandwidth unrouted flow, preferring
   flows whose endpoints are already mapped (both > one > none);
   [-1] when every flow is routed. *)
let pick_item items placement =
  let best = ref (-1) in
  let best_rank = ref (-1) in
  let n = Array.length items in
  let i = ref 0 in
  while !best_rank < 2 && !i < n do
    let it = items.(!i) in
    if not it.routed then begin
      let mapped c = placement.(c) >= 0 in
      let rank =
        (if mapped it.flow.Flow.src then 1 else 0) + if mapped it.flow.Flow.dst then 1 else 0
      in
      if rank > !best_rank then begin
        best_rank := rank;
        best := !i
      end
    end;
    incr i
  done;
  !best

(* Algorithm 2 step 2: the bandwidth-sorted worklist. *)
let worklist use_cases =
  let cmp a b =
    match Flow.compare_bandwidth_desc a.flow b.flow with
    | 0 -> Int.compare a.uc b.uc
    | c -> c
  in
  Array.of_list
    (List.sort cmp
       (List.concat_map
          (fun u -> List.map (fun f -> { uc = u.Use_case.id; flow = f; routed = false }) u.Use_case.flows)
          use_cases))

let core_loads ~cores use_cases =
  Array.map
    (fun u ->
      let load = Array.make cores 0.0 in
      List.iter
        (fun f ->
          load.(f.Flow.src) <- load.(f.Flow.src) +. f.Flow.bandwidth;
          load.(f.Flow.dst) <- load.(f.Flow.dst) +. f.Flow.bandwidth)
        u.Use_case.flows;
      load)
    (Array.of_list use_cases)

type bias = Compact | Spread

(* One free-placement attempt on one mesh. *)
let run ~config ~mesh ~bias ~groups use_cases =
  let cores = (List.hd use_cases).Use_case.cores in
  let n_uc = List.length use_cases in
  let items = worklist use_cases in
  let group_list = Array.of_list groups in
  let scratch = Path_select.scratch ~config ~mesh in
  let n_switch = Mesh.switch_count mesh in
  let cap = config.Config.nis_per_switch in
  if cores > n_switch * cap then
    Error
      (Printf.sprintf "mesh offers %d NIs but the SoC has %d cores" (n_switch * cap) cores)
  else begin
    let states = Array.make n_uc None in
    let touched u = states.(u) in
    let state u =
      match states.(u) with
      | Some s -> s
      | None ->
        let s = Resources.create ~config ~mesh ~use_case:u in
        states.(u) <- Some s;
        s
    in
    let placement = Array.make cores (-1) in
    let ni_used = Array.make n_switch 0 in
    let core_load = core_loads ~cores use_cases in
    let demand = Array.of_list (List.map (fun u -> 2.0 *. Use_case.total_bandwidth u) use_cases) in
    let switch_load = Array.make (n_uc * n_switch) 0.0 in
    let hw_budget =
      let capacity = Config.link_capacity config in
      Array.init n_switch (fun s ->
          let degree = float_of_int (Noc_graph.Intgraph.degree (Mesh.graph mesh) s) in
          config.Config.placement_hw_factor *. 2.0 *. degree *. capacity)
    in
    let spread_budget =
      Array.map
        (fun total -> config.Config.placement_spread_factor *. total /. float_of_int n_switch)
        demand
    in
    let admissible core s =
      n_switch = 1
      || ni_used.(s) = 0
      ||
      let ok = ref true in
      for u = 0 to n_uc - 1 do
        if
          switch_load.((u * n_switch) + s) +. core_load.(u).(core)
          > Float.min hw_budget.(s) spread_budget.(u)
        then ok := false
      done;
      !ok
    in
    let commit_load core s =
      for u = 0 to n_uc - 1 do
        let k = (u * n_switch) + s in
        switch_load.(k) <- switch_load.(k) +. core_load.(u).(core)
      done
    in
    let routes = ref [] in
    let next_conn = ref 0 in
    let fresh_conn () =
      let c = !next_conn in
      incr next_conn;
      c
    in
    let place_core ~uc ~bw ~peer core =
      let needed = max 1 (Config.slots_for_bandwidth config bw) in
      let score =
        match peer with
        | Some p ->
          let dist =
            Path_select.distance_map ~scratch ?state:(touched uc) ~config ~needed_slots:needed
              ~source:p ()
          in
          fun c -> dist.(c)
        | None ->
          let centre = Mesh.center mesh in
          fun c -> float_of_int (Mesh.manhattan mesh centre c)
      in
      let bias_weight = match bias with Compact -> 0.001 | Spread -> 1.0 in
      let best = ref (-1) in
      let best_score = ref infinity in
      for c = 0 to n_switch - 1 do
        if ni_used.(c) < cap && admissible core c then begin
          let s = score c +. (bias_weight *. float_of_int ni_used.(c)) in
          if s < !best_score then begin
            best_score := s;
            best := c
          end
        end
      done;
      if !best < 0 || !best_score = infinity then
        raise
          (Fail
             (Printf.sprintf "no feasible switch for core %d (NIs full or network saturated)" core));
      placement.(core) <- !best;
      ni_used.(!best) <- ni_used.(!best) + 1;
      commit_load core !best
    in
    let route_group ~src_core ~dst_core ~group ~active ~best_effort =
      let src_switch = placement.(src_core) and dst_switch = placement.(dst_core) in
      let fail_with active msg =
        raise
          (Fail
             (Printf.sprintf "flow %d->%d (%.1f MB/s, uc %d): %s" src_core dst_core
                (List.fold_left (fun a it -> Float.max a it.flow.Flow.bandwidth) 0.0 active)
                (match active with it :: _ -> it.uc | [] -> -1)
                msg))
      in
      if active <> [] then begin
        let active_ucs = List.map (fun it -> it.uc) active in
        let passive =
          List.filter_map
            (fun u -> if List.mem u active_ucs then None else Some (state u))
            group
        in
        let members =
          List.map
            (fun it ->
              ( state it.uc,
                {
                  Path_select.conn_id = fresh_conn ();
                  flow = it.flow;
                  src_switch;
                  dst_switch;
                } ))
            active
        in
        match Path_select.route_shared ~scratch ~passive ~members () with
        | Ok rs ->
          routes := List.rev_append rs !routes;
          List.iter (fun it -> it.routed <- true) active
        | Error msg -> fail_with active msg
      end;
      List.iter
        (fun it ->
          let req =
            {
              Path_select.conn_id = fresh_conn ();
              flow = it.flow;
              src_switch;
              dst_switch;
            }
          in
          match Path_select.route_be ~scratch ~state:(state it.uc) req with
          | Ok r ->
            routes := r :: !routes;
            it.routed <- true
          | Error msg -> fail_with [ it ] msg)
        best_effort
    in
    let route_pair ~src_core ~dst_core =
      Array.iter
        (fun g ->
          let pending service =
            Array.to_list items
            |> List.filter (fun it ->
                   (not it.routed)
                   && List.mem it.uc g
                   && it.flow.Flow.src = src_core
                   && it.flow.Flow.dst = dst_core
                   && it.flow.Flow.service = service)
          in
          route_group ~src_core ~dst_core ~group:g ~active:(pending Flow.Guaranteed)
            ~best_effort:(pending Flow.Best_effort))
        group_list
    in
    try
      let continue = ref true in
      while !continue do
        let i = pick_item items placement in
        if i < 0 then continue := false
        else begin
          let it = items.(i) in
          let src = it.flow.Flow.src and dst = it.flow.Flow.dst in
          let uc = it.uc and bw = it.flow.Flow.bandwidth in
          if placement.(src) < 0 && placement.(dst) < 0 then begin
            place_core ~uc ~bw ~peer:None src;
            place_core ~uc ~bw ~peer:(Some placement.(src)) dst
          end
          else if placement.(src) < 0 then place_core ~uc ~bw ~peer:(Some placement.(dst)) src
          else if placement.(dst) < 0 then place_core ~uc ~bw ~peer:(Some placement.(src)) dst;
          route_pair ~src_core:src ~dst_core:dst
        end
      done;
      Array.iteri
        (fun core s ->
          if s < 0 then begin
            let free = ref (-1) in
            for c = n_switch - 1 downto 0 do
              if ni_used.(c) < cap then free := c
            done;
            if !free < 0 then raise (Fail "not enough NIs for flow-less cores");
            placement.(core) <- !free;
            ni_used.(!free) <- ni_used.(!free) + 1
          end)
        placement;
      Ok
        {
          Mapping.config;
          mesh;
          placement;
          routes = List.rev !routes;
          states = Array.init n_uc state;
          groups;
        }
    with Fail msg -> Error msg
  end

let map_attempt ~config ~mesh ~groups use_cases =
  match run ~config ~mesh ~bias:Compact ~groups use_cases with
  | Ok t -> Ok t
  | Error compact_msg -> (
    match run ~config ~mesh ~bias:Spread ~groups use_cases with
    | Ok t -> Ok t
    | Error _ -> Error compact_msg)

(* The growth loop: sizes the certificate rejects (a prefix of the
   growth order) are recorded without an attempt, then the first size
   that maps wins. *)
let map_design ?(config = Config.default) ~groups use_cases =
  (match Config.validate config with Ok () -> () | Error m -> invalid_arg m);
  let cert = Feasibility.certify ~config ~groups use_cases in
  let rec grow attempts = function
    | [] -> Error { Mapping.attempts = List.rev attempts }
    | (w, h) :: rest -> (
      match Feasibility.explain cert ~width:w ~height:h with
      | Some why -> grow ((w, h, "statically infeasible: " ^ why) :: attempts) rest
      | None -> attempt attempts ((w, h) :: rest))
  and attempt attempts = function
    | [] -> Error { Mapping.attempts = List.rev attempts }
    | (w, h) :: rest -> (
      let mesh = Mesh.create_kind ~kind:config.Config.topology ~width:w ~height:h in
      match map_attempt ~config ~mesh ~groups use_cases with
      | Ok t -> Ok t
      | Error msg -> attempt ((w, h, msg) :: attempts) rest)
  in
  grow [] (Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim)
