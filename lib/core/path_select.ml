module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Tdma = Noc_arch.Tdma
module Route = Noc_arch.Route
module Flow = Noc_traffic.Flow
module Shortest_path = Noc_graph.Shortest_path

type request = {
  conn_id : int;
  flow : Flow.t;
  src_switch : int;
  dst_switch : int;
}

let hop_weight = 1.0
let util_weight = 4.0

(* Routing is the hottest code in the repo, so it carries counters
   only (striped atomic adds) — spans here would dominate the trace
   and the timestamp calls would perturb the measurement. *)
module Metrics = Noc_obs.Metrics

let m_shared = Metrics.counter "route.shared"
let m_be = Metrics.counter "route.be"
let m_detours = Metrics.counter "route.detours"
let m_failures = Metrics.counter "route.failures"

type scratch = {
  adjacency : Shortest_path.adjacency;
  arc_link : int array;  (* arc of [adjacency] -> link id *)
  paths : Shortest_path.scratch;
  worst : float array;  (* per link: members' worst utilization *)
  costs : float array;  (* per arc *)
  starts : Noc_arch.Bitmask.t;  (* shared feasible starts, rebuilt per path *)
  candidates : int array;  (* its set bits, increasing *)
  taken : Bytes.t;  (* candidates picked by the spread policy *)
}

let scratch ~config ~mesh =
  let adjacency = Mesh.adjacency mesh and slots = config.Config.slots in
  let arcs = Shortest_path.arc_count adjacency in
  {
    adjacency;
    arc_link = Array.init arcs (Shortest_path.arc_edge adjacency);
    paths = Shortest_path.scratch adjacency;
    worst = Array.make (Mesh.link_count mesh) 0.0;
    costs = Array.make arcs infinity;
    starts = Noc_arch.Bitmask.create ~slots ~full:true;
    candidates = Array.make slots 0;
    taken = Bytes.create slots;
  }

(* Link cost seen by a set of group members routing together: usable
   ([< infinity]) only if every member still has the needed slots free;
   congestion is the worst member's utilization, so shared paths avoid
   regions that are hot in any member.  [excluded] (indexed by link id)
   lets the caller blacklist links whose slot alignment defeated a
   previous attempt.  Written into [scratch.costs], one per arc, with
   no float boxed on the way. *)
let fill_costs ?excluded scratch members ~needed =
  let worst = scratch.worst and costs = scratch.costs in
  Array.fill worst 0 (Array.length worst) 0.0;
  List.iter (fun state -> Resources.worst_utilization_into state ~needed_slots:needed worst) members;
  (match excluded with
  | Some ex ->
    for l = 0 to Array.length worst - 1 do
      if Bytes.get ex l <> '\000' then worst.(l) <- infinity
    done
  | None -> ());
  for k = 0 to Array.length costs - 1 do
    let w = worst.(scratch.arc_link.(k)) in
    costs.(k) <- (if w = infinity then infinity else hop_weight +. (util_weight *. w))
  done

let find_path ?excluded ~scratch ~leader ~members ~needed ~src ~dst () =
  let mesh = Resources.mesh leader in
  let config = Resources.config leader in
  match config.Config.routing with
  | Config.Min_cost -> (
    fill_costs ?excluded scratch members ~needed;
    Shortest_path.search scratch.paths scratch.adjacency ~costs:scratch.costs ~source:src
      ~target:dst;
    match Shortest_path.path_edges scratch.paths ~source:src ~target:dst with
    | Some edges -> Ok edges
    | None -> Error "no feasible path (bandwidth/slots exhausted)")
  | Config.Xy ->
    let links = Mesh.xy_route mesh ~src ~dst in
    let ok =
      List.for_all
        (fun l ->
          List.for_all (fun st -> Resources.link_usable st ~link:l ~needed_slots:needed) members)
        links
    in
    if ok then Ok links else Error "XY path lacks capacity"

(* Feasible starting slots common to every member along the path:
   rotate-and-AND every member's per-hop free mask into [acc], then
   list its bits into [candidates]; returns their count. *)
let common_starts ~acc ~candidates members links =
  Noc_arch.Bitmask.fill acc;
  List.iter
    (fun state ->
      List.iteri
        (fun hop l ->
          Noc_arch.Bitmask.inter_rotated ~into:acc
            (Noc_arch.Slot_table.free_mask (Resources.table state l))
            ~shift:hop)
        links)
    members;
  Noc_arch.Bitmask.indices_into acc candidates

(* Smallest spread slot set (>= needed) meeting the latency bound, or
   the reason none does.  More slots shrink the worst waiting gap, so
   we escalate the count until the bound holds or candidates run out;
   every step re-marks the same candidate array. *)
let pick_starts ~config ~candidates ~n ~taken ~needed ~hops ~lat_req =
  let slots = config.Config.slots in
  let rec try_count k =
    if k > n then
      Error
        (Printf.sprintf "cannot meet latency %.0f ns (feasible starts %d, needed slots %d)"
           lat_req n needed)
    else begin
      Tdma.mark_spread ~slots ~candidates ~n ~count:k ~taken;
      let gap = Tdma.marked_max_gap ~slots ~candidates ~n ~taken in
      let lat = float_of_int (gap + hops) *. Config.slot_duration_ns config in
      if lat <= lat_req then Ok (Tdma.marked_starts ~candidates ~n ~taken) else try_count (k + 1)
    end
  in
  if n < needed then
    Error (Printf.sprintf "only %d aligned slots free, flow needs %d" n needed)
  else try_count needed

let check_ni members =
  List.fold_left
    (fun acc (state, req) ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        let bw = req.flow.Flow.bandwidth in
        if
          Resources.ni_available state ~core:req.flow.Flow.src >= bw
          && Resources.ni_available state ~core:req.flow.Flow.dst >= bw
        then Ok ()
        else Error "NI link budget exhausted")
    (Ok ()) members

let charge_ni members =
  List.iter
    (fun (state, req) ->
      let bw = req.flow.Flow.bandwidth in
      (match Resources.ni_reserve state ~core:req.flow.Flow.src ~bw with
      | Ok () -> ()
      | Error msg -> invalid_arg msg);
      match Resources.ni_reserve state ~core:req.flow.Flow.dst ~bw with
      | Ok () -> ()
      | Error msg -> invalid_arg msg)
    members

let make_route ?(service = Route.Gt) ~use_case req links starts =
  {
    Route.flow_id = req.conn_id;
    use_case;
    src_core = req.flow.Flow.src;
    dst_core = req.flow.Flow.dst;
    src_switch = req.src_switch;
    dst_switch = req.dst_switch;
    bandwidth = req.flow.Flow.bandwidth;
    service;
    links;
    slot_starts = starts;
  }

let count_result r =
  (match r with Error _ -> Metrics.incr m_failures | Ok _ -> ());
  r

let route_shared ?scratch:sc ?(passive = []) ~members () =
  Metrics.incr m_shared;
  match members with
  | [] -> invalid_arg "Path_select.route_shared: no members"
  | (first_state, first_req) :: _ ->
    count_result
    @@
    let src = first_req.src_switch and dst = first_req.dst_switch in
    List.iter
      (fun (_, r) ->
        if r.src_switch <> src || r.dst_switch <> dst then
          invalid_arg "Path_select.route_shared: mismatched switch pairs")
      members;
    let config = Resources.config first_state in
    (* Paper: path and slots are chosen for the member with the maximum
       bandwidth, then reserved identically in every member. *)
    let max_bw =
      List.fold_left (fun acc (_, r) -> Float.max acc r.flow.Flow.bandwidth) 0.0 members
    in
    let lat_req = List.fold_left (fun acc (_, r) -> Float.min acc r.flow.Flow.latency_ns) infinity members in
    let states = List.map fst members @ passive in
    let passive_members =
      (* Passive states mirror the reservation at the group maximum,
         owned by the leader's connection id. *)
      List.map
        (fun state ->
          (state, { first_req with flow = { first_req.flow with Flow.bandwidth = max_bw } }))
        passive
    in
    let finish links starts =
      let reserving = members @ passive_members in
      match check_ni reserving with
      | Error msg -> Error msg
      | Ok () ->
        charge_ni reserving;
        if links <> [] then
          List.iter
            (fun (state, req) ->
              Tdma.reserve
                ~tables:(Resources.path_tables state links)
                ~owner:req.conn_id ~starts)
            reserving;
        Ok
          (List.map
             (fun (state, req) ->
               make_route ~use_case:(Resources.use_case state) req links starts)
             members)
    in
    if src = dst then
      (* NI-to-NI through one switch: one slot duration of latency. *)
      if Config.slot_duration_ns config <= lat_req then finish [] []
      else Error "latency bound tighter than one slot duration"
    else begin
      let needed = Config.slots_for_bandwidth config max_bw in
      if needed > config.Config.slots then
        Error
          (Printf.sprintf "flow bandwidth %.1f MB/s exceeds link capacity %.1f MB/s" max_bw
             (Config.link_capacity config))
      else begin
        (* When the least-cost path has no aligned slots, blacklist its
           scarcest link and search again: the path search itself is
           alignment-blind, so a handful of detour attempts recovers
           most of the feasible region. *)
        let max_retries = 12 in
        let scarcest links =
          let free_on l =
            List.fold_left
              (fun acc st -> min acc (Resources.free_slots st l))
              max_int states
          in
          match links with
          | [] -> None
          | l :: rest ->
            Some
              (List.fold_left (fun best l' -> if free_on l' < free_on best then l' else best) l rest)
        in
        let scratch =
          match sc with
          | Some s -> s
          | None -> scratch ~config ~mesh:(Resources.mesh first_state)
        in
        (* The blacklist exists only once a first detour needs it. *)
        let rec attempt ?excluded tries last_err =
          if tries > max_retries then Error last_err
          else
            match
              find_path ?excluded ~scratch ~leader:first_state ~members:states ~needed ~src ~dst ()
            with
            | Error e -> if tries = 0 then Error e else Error last_err
            | Ok links -> (
              let n =
                common_starts ~acc:scratch.starts ~candidates:scratch.candidates states links
              in
              match
                pick_starts ~config ~candidates:scratch.candidates ~n ~taken:scratch.taken ~needed
                  ~hops:(List.length links) ~lat_req
              with
              | Ok starts -> finish links starts
              | Error e -> (
                match scarcest links with
                | None -> Error e
                | Some l ->
                  let excluded =
                    match excluded with
                    | Some ex -> ex
                    | None -> Bytes.make (Array.length scratch.worst) '\000'
                  in
                  Bytes.set excluded l '\001';
                  Metrics.incr m_detours;
                  attempt ~excluded (tries + 1) e))
        in
        attempt 0 "no feasible path"
      end
    end

let route ~state req =
  Result.map (fun routes -> List.hd routes) (route_shared ~members:[ (state, req) ] ())

let route_be ?scratch:sc ~state req =
  if Flow.is_guaranteed req.flow then
    invalid_arg "Path_select.route_be: guaranteed flow";
  Metrics.incr m_be;
  count_result
  @@
  let src = req.src_switch and dst = req.dst_switch in
  let use_case = Resources.use_case state in
  if src = dst then Ok (make_route ~service:Route.Be ~use_case req [] [])
  else begin
    (* Any link with at least one free slot can carry BE traffic; the
       cost still steers BE paths away from GT-hot regions. *)
    let scratch =
      match sc with
      | Some s -> s
      | None -> scratch ~config:(Resources.config state) ~mesh:(Resources.mesh state)
    in
    match find_path ~scratch ~leader:state ~members:[ state ] ~needed:0 ~src ~dst () with
    | Error _ as e -> e
    | Ok links -> Ok (make_route ~service:Route.Be ~use_case req links [])
  end

let distance_map ~scratch ?state ~config ~needed_slots ~source () =
  (match state with
  | Some state -> fill_costs scratch [ state ] ~needed:needed_slots
  | None ->
    (* No reservation yet: every link is free and idle, so these are
       exactly [fill_costs]'s costs over a fresh state. *)
    Array.fill scratch.costs 0 (Array.length scratch.costs)
      (if config.Config.slots >= needed_slots then hop_weight +. (util_weight *. 0.0)
       else infinity));
  Shortest_path.search scratch.paths scratch.adjacency ~costs:scratch.costs ~source ~target:(-1);
  Shortest_path.distances scratch.paths
