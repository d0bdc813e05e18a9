module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case

type t = {
  config : Config.t;
  mesh : Mesh.t;
  placement : int array;
  routes : Route.t list;
  states : Resources.t array;
  groups : int list list;
}

type failure = { attempts : (int * int * string) list }

exception Fail of string

type item = {
  uc : int;
  flow : Flow.t;
  mutable routed : bool;
}

(* The filler of freshly made item arrays. *)
let no_item = { uc = -1; flow = Flow.v ~src:0 ~dst:0 0.0; routed = false }

(* Items of one (src, dst) pair in one group, split by service class,
   in worklist order; the first route_pair on the pair routes them. *)
type bucket = { gt : item list; be : item list }

(* Binary min-heap of item indices (min index on top), backing the
   rank-partitioned worklist: the sorted-array index doubles as the
   priority, so popping yields the highest-bandwidth pending item. *)
module Int_heap = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let clear h = h.n <- 0

  let push h x =
    if h.n = Array.length h.a then begin
      let bigger = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 bigger 0 h.n;
      h.a <- bigger
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- x;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && h.a.(l) < h.a.(!smallest) then smallest := l;
        if r < h.n && h.a.(r) < h.a.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.a.(!smallest) in
          h.a.(!smallest) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

let switch_count t = Mesh.switch_count t.mesh

let switches_in_use t =
  let used = Array.make (Mesh.switch_count t.mesh) false in
  Array.iter (fun s -> if s >= 0 then used.(s) <- true) t.placement;
  List.iter
    (fun r ->
      used.(r.Route.src_switch) <- true;
      used.(r.Route.dst_switch) <- true;
      List.iter
        (fun l ->
          let a, b = Mesh.link_endpoints t.mesh l in
          used.(a) <- true;
          used.(b) <- true)
        r.Route.links)
    t.routes;
  Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0 used

let routes_of_use_case t uc = List.filter (fun r -> r.Route.use_case = uc) t.routes

let total_weighted_hops t =
  List.fold_left
    (fun acc r -> acc +. (r.Route.bandwidth *. float_of_int (Route.hops r)))
    0.0 t.routes

let validate_inputs ~groups use_cases =
  (match use_cases with
  | [] -> invalid_arg "Mapping: no use-cases"
  | first :: rest ->
    let cores = first.Use_case.cores in
    List.iter
      (fun u ->
        if u.Use_case.cores <> cores then invalid_arg "Mapping: use-cases disagree on core count")
      rest);
  List.iteri
    (fun i u ->
      if u.Use_case.id <> i then
        invalid_arg
          (Printf.sprintf "Mapping: use-case ids must be positional (found id %d at position %d)"
             u.Use_case.id i))
    use_cases;
  let n = List.length use_cases in
  let seen = Array.make n false in
  List.iter
    (List.iter (fun u ->
         if u < 0 || u >= n then invalid_arg "Mapping: group member out of range";
         if seen.(u) then invalid_arg "Mapping: use-case in two groups";
         seen.(u) <- true))
    groups;
  Array.iteri (fun u s -> if not s then invalid_arg (Printf.sprintf "Mapping: use-case %d in no group" u)) seen

(* What every attempt on one design shares, built once and reset per
   attempt: the bandwidth-sorted worklist (Algorithm 2 step 2), a dense
   index of its (src, dst) pairs, the items touching each core, and the
   per-use-case core loads of the placement budgets. *)
type context = {
  groups : int list list;
  group_list : int list array;
  cores : int;
  n_uc : int;
  items : item array;
  item_pair : int array;  (* item -> dense pair id *)
  pair_buckets : bucket array array;  (* pair -> group -> items *)
  pair_done : Bytes.t;  (* pairs routed in the current attempt *)
  core_items : int list array;  (* core -> items touching it, in order *)
  core_load : float array array;  (* use-case -> core -> MB/s *)
  demand : float array;  (* use-case -> 2 x total bandwidth *)
  heaps : Int_heap.t array;  (* worklist partitioned by endpoint-mapped rank *)
}

let context ~groups use_cases =
  let cores = (List.hd use_cases).Use_case.cores in
  let n_uc = List.length use_cases in
  let group_list = Array.of_list groups in
  let n_groups = Array.length group_list in
  let group_of = Array.make n_uc (-1) in
  Array.iteri (fun gi g -> List.iter (fun u -> group_of.(u) <- gi) g) group_list;
  let items =
    let cmp a b =
      match Flow.compare_bandwidth_desc a.flow b.flow with
      | 0 -> Int.compare a.uc b.uc
      | c -> c
    in
    let sorted =
      List.sort cmp
        (List.concat_map
           (fun u ->
             List.map (fun f -> { uc = u.Use_case.id; flow = f; routed = false }) u.Use_case.flows)
           use_cases)
    in
    (* Filled from the long-lived [no_item]: an array initialised with
       a young record would force a minor collection. *)
    let a = Array.make (List.length sorted) no_item in
    List.iteri (fun i it -> a.(i) <- it) sorted;
    a
  in
  let n_items = Array.length items in
  let item_pair = Array.make n_items 0 in
  let pair_id = Hashtbl.create (max 16 n_items) in
  Array.iteri
    (fun i it ->
      let key = (it.flow.Flow.src * cores) + it.flow.Flow.dst in
      item_pair.(i) <-
        (match Hashtbl.find_opt pair_id key with
        | Some p -> p
        | None ->
          let p = Hashtbl.length pair_id in
          Hashtbl.add pair_id key p;
          p))
    items;
  let n_pairs = Hashtbl.length pair_id in
  let pair_buckets = Array.init n_pairs (fun _ -> Array.make n_groups { gt = []; be = [] }) in
  let core_items = Array.make cores [] in
  for i = n_items - 1 downto 0 do
    let it = items.(i) in
    let src = it.flow.Flow.src and dst = it.flow.Flow.dst in
    core_items.(src) <- i :: core_items.(src);
    if dst <> src then core_items.(dst) <- i :: core_items.(dst);
    let row = pair_buckets.(item_pair.(i)) and g = group_of.(it.uc) in
    let b = row.(g) in
    row.(g) <-
      (if Flow.is_guaranteed it.flow then { b with gt = it :: b.gt } else { b with be = it :: b.be })
  done;
  let core_load =
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
  in
  {
    groups;
    group_list;
    cores;
    n_uc;
    items;
    item_pair;
    pair_buckets;
    pair_done = Bytes.create n_pairs;
    core_items;
    core_load;
    demand = Array.of_list (List.map (fun u -> 2.0 *. Use_case.total_bandwidth u) use_cases);
    heaps = Array.init 3 (fun _ -> Int_heap.create ());
  }

type placement_mode = Free | Fixed

type placement_bias = Compact | Spread

(* One attempt on one mesh (the body of Algorithm 2's outer loop).
   Everything that depends on the mesh, the bias or the placement is
   made here; the context is reset, not rebuilt. *)
let run ctx ~scratch ~config ~mesh ~mode ~bias ~initial_placement =
  let cores = ctx.cores and n_uc = ctx.n_uc and items = ctx.items in
  let n_switch = Mesh.switch_count mesh in
  let cap = config.Config.nis_per_switch in
  if cores > n_switch * cap then
    Error
      (Printf.sprintf "mesh offers %d NIs but the SoC has %d cores" (n_switch * cap) cores)
  else begin
    (* Resource states are made on first touch: an attempt that fails
       while placing its first cores builds no slot table. *)
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
    let placement = Array.copy initial_placement in
    let ni_used = Array.make n_switch 0 in
    Array.iter
      (fun s -> if s >= 0 then ni_used.(s) <- ni_used.(s) + 1)
      placement;
    let n_items = Array.length items in
    let rank it =
      (if placement.(it.flow.Flow.src) >= 0 then 1 else 0)
      + if placement.(it.flow.Flow.dst) >= 0 then 1 else 0
    in
    Array.iter (fun it -> it.routed <- false) items;
    Bytes.fill ctx.pair_done 0 (Bytes.length ctx.pair_done) '\000';
    (* Algorithm 2 step 3 picks the highest-bandwidth unrouted flow,
       preferring flows whose endpoints are already mapped (both > one
       > none): worklist heaps partitioned by endpoint-mapped rank.
       Ranks only grow (cores are never unplaced within an attempt), so
       an item is pushed at most once per rank and stale entries are
       skipped lazily on pop. *)
    let heaps = ctx.heaps in
    Array.iter Int_heap.clear heaps;
    for i = 0 to n_items - 1 do
      Int_heap.push heaps.(rank items.(i)) i
    done;
    (* Rank of items touching [core] just grew: re-file them. *)
    let on_place core =
      List.iter
        (fun i ->
          let it = items.(i) in
          if not it.routed then Int_heap.push heaps.(rank it) i)
        ctx.core_items.(core)
    in
    let rec pop_rank r =
      match Int_heap.pop heaps.(r) with
      | None -> -1
      | Some i ->
        let it = items.(i) in
        if it.routed || rank it <> r then pop_rank r else i
    in
    (* [-1] when every flow is routed. *)
    let pick () =
      let i = pop_rank 2 in
      if i >= 0 then i
      else
        let i = pop_rank 1 in
        if i >= 0 then i else pop_rank 0
    in
    (* Placement admission budgets: a switch may host cores whose
       traffic (per use-case) stays within (a) a fraction of its
       aggregate link bandwidth and (b) a multiple of the mesh-wide
       average load.  (b) is what makes growing the mesh genuinely
       relax contention: on larger meshes cores are forced apart. *)
    let core_load = ctx.core_load in
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
        ctx.demand
    in
    Array.iteri
      (fun core s ->
        if s >= 0 then
          for u = 0 to n_uc - 1 do
            let k = (u * n_switch) + s in
            switch_load.(k) <- switch_load.(k) +. core_load.(u).(core)
          done)
      placement;
    let admissible core s =
      n_switch = 1
      || ni_used.(s) = 0 (* a core may always sit alone on an empty switch *)
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
    (* Place one core near its peer (or near the centre when it is the
       very first).  The distance map approximates the path cost in the
       use-case driving the decision; the mesh is direction-symmetric,
       so using the peer as Dijkstra source is a sound heuristic for
       both flow directions. *)
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
      commit_load core !best;
      on_place core
    in
    (* Route the pair (src,dst) in every group that still has unrouted
       flows on that pair: one shared configuration per group (steps
       4-6 of Algorithm 2). *)
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
      (* Guaranteed flows share one configuration per group. *)
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
      (* Best-effort flows are routed per use-case, with no
         reservation: they take leftover slots at run time. *)
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
    (* Every item of a pair is routed by the pair's first route_pair. *)
    let route_pair i ~src_core ~dst_core =
      let p = ctx.item_pair.(i) in
      if Bytes.get ctx.pair_done p = '\000' then begin
        Bytes.set ctx.pair_done p '\001';
        Array.iteri
          (fun gi bucket ->
            route_group ~src_core ~dst_core ~group:ctx.group_list.(gi) ~active:bucket.gt
              ~best_effort:bucket.be)
          ctx.pair_buckets.(p)
      end
    in
    try
      let continue = ref true in
      while !continue do
        let i = pick () in
        if i < 0 then continue := false
        else begin
          let it = items.(i) in
          let src = it.flow.Flow.src and dst = it.flow.Flow.dst in
          let uc = it.uc and bw = it.flow.Flow.bandwidth in
          (match mode with
          | Fixed ->
            if placement.(src) < 0 || placement.(dst) < 0 then
              raise (Fail "fixed placement leaves a communicating core unplaced")
          | Free ->
            if placement.(src) < 0 && placement.(dst) < 0 then begin
              place_core ~uc ~bw ~peer:None src;
              place_core ~uc ~bw ~peer:(Some placement.(src)) dst
            end
            else if placement.(src) < 0 then
              place_core ~uc ~bw ~peer:(Some placement.(dst)) src
            else if placement.(dst) < 0 then
              place_core ~uc ~bw ~peer:(Some placement.(src)) dst);
          route_pair i ~src_core:src ~dst_core:dst
        end
      done;
      (* Cores untouched by any flow still need an NI each. *)
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
          config;
          mesh;
          placement;
          routes = List.rev !routes;
          states = Array.init n_uc state;
          groups = ctx.groups;
        }
    with Fail msg -> Error msg
  end

let check_config config =
  match Config.validate config with Ok () -> () | Error m -> invalid_arg m

let prepare ~config ~groups use_cases =
  validate_inputs ~groups use_cases;
  check_config config;
  context ~groups use_cases

let map_on_mesh ?(bias = Compact) ~config ~mesh ~groups use_cases =
  let ctx = prepare ~config ~groups use_cases in
  run ctx ~scratch:(Path_select.scratch ~config ~mesh) ~config ~mesh ~mode:Free ~bias
    ~initial_placement:(Array.make ctx.cores (-1))

let map_with_placement ~config ~mesh ~groups ~placement use_cases =
  let ctx = prepare ~config ~groups use_cases in
  run ctx ~scratch:(Path_select.scratch ~config ~mesh) ~config ~mesh ~mode:Fixed ~bias:Compact
    ~initial_placement:placement

(* One mesh-size attempt of the growth loop: greedy Compact placement,
   then the cheap whole-attempt backtrack to Spread (co-location
   sometimes saturates one region that an emptier spread survives). *)
let attempt_in ctx ~config ~mesh =
  let scratch = Path_select.scratch ~config ~mesh in
  let free = Array.make ctx.cores (-1) in
  let on bias =
    run ctx ~scratch ~config ~mesh ~mode:Free ~bias ~initial_placement:free
  in
  match on Compact with
  | Ok t -> Ok t
  | Error compact_msg -> (
    match on Spread with Ok t -> Ok t | Error _ -> Error compact_msg)

(* Exposed for the certificate soundness tests. *)
let map_attempt ~config ~mesh ~groups use_cases =
  let ctx = prepare ~config ~groups use_cases in
  attempt_in ctx ~config ~mesh

type attempt_cache = {
  lookup : width:int -> height:int -> (t, string) result option;
  store : width:int -> height:int -> (t, string) result -> unit;
}

module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let m_designs = Metrics.counter "map.designs"
let m_attempts = Metrics.counter "map.attempts"
let m_attempt_failures = Metrics.counter "map.attempt_failures"
let m_attempt_cache_hits = Metrics.counter "map.attempt_cache_hits"
let m_pruned = Metrics.counter "map.pruned"

let map_design ?(config = Config.default) ?parallel:_
    ?(prune = true) ?cache ?seeded ~groups use_cases =
  Metrics.incr m_designs;
  validate_inputs ~groups use_cases;
  check_config config;
  (* Built by the first attempt: a design whose every size is pruned,
     seeded or cached never needs it. *)
  let built = ref None in
  let ctx () =
    match !built with
    | Some c -> c
    | None ->
      let c = context ~groups use_cases in
      built := Some c;
      c
  in
  (* Certificate pruning: every bound is monotone along the growth
     order, so the sizes the certificate rejects form a prefix of it.
     Only that prefix is explained, and it is recorded as failed
     attempts without running placement or routing.  Every pruned size
     would have failed (the bounds are sound), so the first success —
     and hence the result — is exactly the unpruned one. *)
  let rec skip_rejected cert pruned = function
    | (w, h) :: rest as kept -> (
      match Feasibility.explain cert ~width:w ~height:h with
      | Some why ->
        Metrics.incr m_pruned;
        skip_rejected cert ((w, h, "statically infeasible: " ^ why) :: pruned) rest
      | None -> (pruned, kept))
    | [] -> (pruned, [])
  in
  let sizes = Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim in
  let attempt (w, h) =
    match (match cache with Some c -> c.lookup ~width:w ~height:h | None -> None) with
    | Some (Ok t) ->
      Metrics.incr m_attempt_cache_hits;
      Ok t
    | Some (Error msg) ->
      Metrics.incr m_attempt_cache_hits;
      Error (w, h, msg)
    | None -> (
      Metrics.incr m_attempts;
      let mesh = Mesh.create_kind ~kind:config.Config.topology ~width:w ~height:h in
      let solve () = attempt_in (ctx ()) ~config ~mesh in
      let result =
        if Tracer.enabled () then
          Tracer.with_span ~cat:"map"
            ~args:[ ("width", Tracer.Int w); ("height", Tracer.Int h) ]
            "map:attempt" solve
        else solve ()
      in
      (match cache with Some c -> c.store ~width:w ~height:h result | None -> ());
      match result with
      | Ok t -> Ok t
      | Error compact_msg ->
        Metrics.incr m_attempt_failures;
        Error (w, h, compact_msg))
  in
  (* Algorithm 2: the first size that maps wins.  A [seeded] mapping
     stands in for the size's attempt. *)
  let rec grow attempts = function
    | [] -> Error { attempts = List.rev attempts }
    | ((w, h) as size) :: rest -> (
      match Option.bind seeded (fun f -> f ~width:w ~height:h) with
      | Some t -> Ok t
      | None -> (
        match attempt size with Ok t -> Ok t | Error a -> grow (a :: attempts) rest))
  in
  let solve () =
    let certified () = skip_rejected (Feasibility.certify ~config ~groups use_cases) [] sizes in
    let pruned_rev, sizes =
      if not prune then ([], sizes)
      else if Tracer.enabled () then
        Tracer.with_span ~cat:"map" "feasibility.certify" certified
      else certified ()
    in
    if Tracer.enabled () then Tracer.add_arg "pruned" (Tracer.Int (List.length pruned_rev));
    grow pruned_rev sizes
  in
  if Tracer.enabled () then
    Tracer.with_span ~cat:"map"
      ~args:
        [
          ("use_cases", Tracer.Int (List.length use_cases));
          ("groups", Tracer.Int (List.length groups));
        ]
      "map_design" solve
  else solve ()

let pp_failure ppf { attempts } =
  Format.fprintf ppf "@[<v>mapping failed at every size:@ ";
  List.iter (fun (w, h, msg) -> Format.fprintf ppf "%dx%d: %s@ " w h msg) attempts;
  Format.fprintf ppf "@]"
