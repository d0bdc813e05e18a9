module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case

type demand = {
  core : int;
  egress : bool;
  slots : int;
}

type group_cert = {
  group : int;
  cut : demand list;
  aggregate : int;
}

type impossibility = {
  group : int;
  src : int;
  dst : int;
  reason : string;
}

type t = {
  topology : Mesh.kind;
  slots : int;
  cap : int;
  cores : int;
  max_dim : int;
  impossible : impossibility list;
  group_certs : group_cert list;
}

(* Smallest per-link slot count a remote (>= 1 hop) reservation of this
   flow can occupy, or [None] when no count works.  Mirrors the mapper
   exactly: the bandwidth floor is [Config.slots_for_bandwidth] and the
   latency check is [Tdma.worst_case_latency_ns] with the best possible
   start spread — [k] starts in [S] slots leave a cyclic gap of at least
   ceil(S/k) (the gaps sum to S) — at the best possible hop count of 1.
   Both are lower bounds on what any actual route achieves, so a [None]
   here means every remote route fails in [Path_select]. *)
let eff_slots ~config bw lat =
  let s = config.Config.slots in
  let needed = max 1 (Config.slots_for_bandwidth config bw) in
  if needed > s then None
  else if lat = infinity then Some needed
  else
    let dur = Config.slot_duration_ns config in
    let rec try_k k =
      if k > s then None
      else
        let gap = (s + k - 1) / k in
        if float_of_int (gap + 1) *. dur <= lat then Some k else try_k (k + 1)
    in
    try_k needed

(* One merged directed reservation: group members share a single
   configuration, so [Path_select.route_shared] reserves each ordered
   pair once at the members' maximum bandwidth and minimum latency. *)
type dstat = {
  d_src : int;
  d_dst : int;
  d_bw : float;
  d_lat : float;
  d_k : int option;  (* remote per-link slots, None = remote infeasible *)
  d_coloc : bool;    (* survives NI-to-NI through one switch *)
}

let sum = List.fold_left ( + ) 0

(* Largest [b] elements of [l], summed. *)
let top_sum b l =
  let sorted = List.sort (fun a b -> compare b a) l in
  let rec take n = function
    | x :: rest when n > 0 -> x + take (n - 1) rest
    | _ -> 0
  in
  take b sorted

let certify_group ~config ~impossible gi members ucs =
  let dur = Config.slot_duration_ns config in
  let slots = config.Config.slots in
  let cap = config.Config.nis_per_switch in
  let cores = ucs.(0).Use_case.cores in
  (* Merged guaranteed traffic of the group: per ordered pair the
     maximum bandwidth and minimum latency across members. *)
  let merged = Hashtbl.create 64 in
  List.iter
    (fun id ->
      List.iter
        (fun f ->
          if Flow.is_guaranteed f then begin
            let key = (f.Flow.src, f.Flow.dst) in
            let bw, lat =
              Option.value (Hashtbl.find_opt merged key) ~default:(0.0, infinity)
            in
            Hashtbl.replace merged key
              (Float.max bw f.Flow.bandwidth, Float.min lat f.Flow.latency_ns)
          end)
        ucs.(id).Use_case.flows)
    members;
  let stats =
    Hashtbl.fold
      (fun (src, dst) (bw, lat) acc ->
        { d_src = src; d_dst = dst; d_bw = bw; d_lat = lat;
          d_k = eff_slots ~config bw lat; d_coloc = dur <= lat }
        :: acc)
      merged []
  in
  (* Globally impossible flows: no remote slot count works and the
     co-located fallback misses the latency bound too. *)
  let stats =
    List.filter
      (fun st ->
        if st.d_k = None && not st.d_coloc then begin
          let needed = max 1 (Config.slots_for_bandwidth config st.d_bw) in
          let why =
            if needed > slots then
              Printf.sprintf
                "bandwidth %.1f MB/s needs %d slots of a %d-slot table, and \
                 co-location misses latency %.0f ns (one slot lasts %.0f ns)"
                st.d_bw needed slots st.d_lat dur
            else
              Printf.sprintf
                "latency %.0f ns is under one slot duration (%.0f ns), which \
                 even two co-located cores cannot beat"
                st.d_lat dur
          in
          impossible :=
            { group = gi; src = st.d_src; dst = st.d_dst;
              reason = Printf.sprintf "flow %d -> %d can never be routed: %s"
                  st.d_src st.d_dst why }
            :: !impossible;
          false
        end
        else true)
      stats
  in
  (* Group directions by unordered core pair: co-location is one
     decision per pair. *)
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun st ->
      let key = (min st.d_src st.d_dst, max st.d_src st.d_dst) in
      let cur = Option.value (Hashtbl.find_opt pairs key) ~default:[] in
      Hashtbl.replace pairs key (st :: cur))
    stats;
  (* Forced co-locations (a direction that cannot go remote) union into
     components that must share one switch. *)
  let parent = Array.init cores Fun.id in
  let rec find x = if parent.(x) = x then x else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let forced_edges = ref [] in
  Hashtbl.iter
    (fun (a, b) dirs ->
      let forced = List.exists (fun st -> st.d_k = None) dirs in
      let must_remote = List.exists (fun st -> not st.d_coloc) dirs in
      if forced then begin
        if must_remote then
          impossible :=
            { group = gi; src = a; dst = b;
              reason =
                Printf.sprintf
                  "cores %d and %d must share a switch (a flow between them \
                   cannot go remote) yet another flow between them cannot \
                   meet its latency through a shared switch" a b }
            :: !impossible
        else begin
          union a b;
          forced_edges := (a, b) :: !forced_edges
        end
      end)
    pairs;
  let comp_size = Array.make cores 0 in
  Array.iteri (fun c _ -> comp_size.(find c) <- comp_size.(find c) + 1) parent;
  List.iter
    (fun (a, b) ->
      let r = find a in
      if comp_size.(r) > cap then begin
        comp_size.(r) <- cap; (* report each oversized component once *)
        impossible :=
          { group = gi; src = a; dst = b;
            reason =
              Printf.sprintf
                "co-location closure around cores %d and %d spans more cores \
                 than one switch's %d NIs" a b cap }
          :: !impossible
      end)
    !forced_edges;
  (* Per-core directional slot demands.  A core keeps at most
     cap - |its forced component| optional partners on its own switch;
     everything else reserves its per-link slots on the core's switch
     egress (first link) / ingress (last link). *)
  let must_out = Array.make cores 0 and must_in = Array.make cores 0 in
  let opt_out = Array.make cores [] and opt_in = Array.make cores [] in
  Hashtbl.iter
    (fun (a, b) dirs ->
      if List.exists (fun st -> st.d_k = None) dirs then ()
        (* forced co-located (or already reported impossible): no slots *)
      else if find a = find b then begin
        (* transitively forced onto one switch *)
        if List.exists (fun st -> not st.d_coloc) dirs then
          impossible :=
            { group = gi; src = a; dst = b;
              reason =
                Printf.sprintf
                  "cores %d and %d are transitively forced onto one switch \
                   but a flow between them cannot meet its latency there" a b }
            :: !impossible
      end
      else begin
        let must = List.exists (fun st -> not st.d_coloc) dirs in
        let cost_out c =
          List.fold_left
            (fun acc st -> if st.d_src = c then acc + Option.get st.d_k else acc)
            0 dirs
        in
        let cost_in c =
          List.fold_left
            (fun acc st -> if st.d_dst = c then acc + Option.get st.d_k else acc)
            0 dirs
        in
        let add c d =
          if must then begin
            must_out.(c) <- must_out.(c) + cost_out c;
            must_in.(c) <- must_in.(c) + cost_in c
          end
          else begin
            opt_out.(c) <- cost_out c :: opt_out.(c);
            opt_in.(c) <- cost_in c :: opt_in.(c)
          end;
          ignore d
        in
        add a b;
        add b a
      end)
    pairs;
  let cut = ref [] in
  let total = ref 0 in
  for c = cores - 1 downto 0 do
    let budget = max 0 (cap - comp_size.(find c)) in
    let out = must_out.(c) + sum opt_out.(c) - top_sum budget opt_out.(c) in
    let inn = must_in.(c) + sum opt_in.(c) - top_sum budget opt_in.(c) in
    total := !total + out + inn;
    if inn > 0 then cut := { core = c; egress = false; slots = inn } :: !cut;
    if out > 0 then cut := { core = c; egress = true; slots = out } :: !cut
  done;
  { group = gi; cut = !cut; aggregate = (!total + 1) / 2 }

let certify ?(config = Config.default) ~groups use_cases =
  (match use_cases with
  | [] -> invalid_arg "Feasibility.certify: no use-cases"
  | _ -> ());
  let ucs = Array.of_list use_cases in
  let n = Array.length ucs in
  List.iter
    (List.iter (fun id ->
         if id < 0 || id >= n then
           invalid_arg "Feasibility.certify: group member out of range"))
    groups;
  let impossible = ref [] in
  let group_certs =
    List.mapi (fun gi members -> certify_group ~config ~impossible gi members ucs) groups
  in
  {
    topology = config.Config.topology;
    slots = config.Config.slots;
    cap = config.Config.nis_per_switch;
    cores = ucs.(0).Use_case.cores;
    max_dim = config.Config.max_mesh_dim;
    impossible = List.rev !impossible;
    group_certs;
  }

(* Most-connected switch (out-degree) and directed link count of the
   switch graph the mapper will route on.  Along the growth sequence
   both grow monotonically, so the admitted set is always an up-set of
   that order. *)
let graph_metrics mesh =
  let g = Mesh.graph mesh in
  let maxdeg = ref 0 in
  for v = 0 to Mesh.switch_count mesh - 1 do
    maxdeg := max !maxdeg (Noc_graph.Intgraph.degree g v)
  done;
  (!maxdeg, Mesh.link_count mesh)

let check_bounds t ~label ~switches ~maxdeg ~links =
  match t.impossible with
  | imp :: _ ->
    Some
      (Printf.sprintf "use-case group %d: %s (infeasible at every size)" imp.group imp.reason)
  | [] ->
    if switches * t.cap < t.cores then
      Some
        (Printf.sprintf "%s offers %d NIs but the SoC has %d cores" label
           (switches * t.cap) t.cores)
    else begin
      let check_group (g : group_cert) =
        let cut_violation =
          List.find_opt (fun (d : demand) -> d.slots > maxdeg * t.slots) g.cut
        in
        match cut_violation with
        | Some d ->
          Some
            (Printf.sprintf
               "group %d: core %d needs %d %s slots but a %s switch exposes \
                at most %d (degree %d x %d slots)"
               g.group d.core d.slots
               (if d.egress then "egress" else "ingress")
               label (maxdeg * t.slots) maxdeg t.slots)
        | None ->
          if g.aggregate > links * t.slots then
            Some
              (Printf.sprintf
                 "group %d: remote reservations need %d slots but a %s grid \
                  has %d (%d links x %d slots)"
                 g.group g.aggregate label (links * t.slots) links t.slots)
          else None
      in
      List.fold_left
        (fun acc g -> match acc with Some _ -> acc | None -> check_group g)
        None t.group_certs
    end

let explain t ~width ~height =
  let mesh = Mesh.create_kind ~kind:t.topology ~width ~height in
  let maxdeg, links = graph_metrics mesh in
  check_bounds t
    ~label:(Printf.sprintf "%dx%d" width height)
    ~switches:(width * height) ~maxdeg ~links

let admits t ~width ~height = explain t ~width ~height = None

let admits_mesh t mesh =
  (* Uses the actual switch graph, so express channels and other
     topology extensions are credited with their extra links. *)
  let maxdeg, links = graph_metrics mesh in
  check_bounds t
    ~label:(Format.asprintf "%a" Mesh.pp mesh)
    ~switches:(Mesh.switch_count mesh) ~maxdeg ~links
  = None

let first_admitted t =
  List.find_opt
    (fun (w, h) -> admits t ~width:w ~height:h)
    (Mesh.growth_sequence ~max_dim:t.max_dim)

let pp ppf t =
  Format.fprintf ppf "@[<v>certificate: %d cores, %d NIs/switch, %d slots@ "
    t.cores t.cap t.slots;
  List.iter
    (fun i -> Format.fprintf ppf "impossible (group %d): %s@ " i.group i.reason)
    t.impossible;
  List.iter
    (fun (g : group_cert) ->
      Format.fprintf ppf "group %d: aggregate %d slots, %d core cut bounds@ " g.group
        g.aggregate (List.length g.cut))
    t.group_certs;
  (match first_admitted t with
  | Some (w, h) -> Format.fprintf ppf "first admitted size: %dx%d" w h
  | None -> Format.fprintf ppf "no admitted size up to %dx%d" t.max_dim t.max_dim);
  Format.fprintf ppf "@]"
