(* Tests for Noc_graph: priority queue, adjacency graphs, DFS
   components, Dijkstra, union-find. *)

module Pq = Noc_graph.Priority_queue
module G = Noc_graph.Intgraph
module Components = Noc_graph.Components
module Sp = Noc_graph.Shortest_path
module Uf = Noc_oracle.Union_find
module Rng = Noc_util.Rng
module Path_select = Noc_core.Path_select

(* --- the kernel before the allocation-light rewrite, verbatim --------------

   The pre-change frontier heap and Dijkstra, and the list-based
   [Tdma.choose_spread] + [Tdma.worst_case_latency_ns] escalation of
   [Path_select.pick_starts]: the oracles the rewritten kernel must
   match exactly (same edges, distances, parents and starts, so every
   cost tie breaks the same way). *)
module Reference = struct
  [@@@warning "-32"]

  module Priority_queue = struct
    type 'a entry = { prio : float; value : 'a }

    type 'a t = {
      mutable data : 'a entry array;
      mutable size : int;
    }

    let create () = { data = [||]; size = 0 }

    let is_empty t = t.size = 0
    let length t = t.size

    let grow t =
      let cap = Array.length t.data in
      if t.size = cap then begin
        let ncap = max 8 (2 * cap) in
        let fresh = Array.make ncap t.data.(0) in
        Array.blit t.data 0 fresh 0 t.size;
        t.data <- fresh
      end

    let swap t i j =
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(j);
      t.data.(j) <- tmp

    let rec sift_up t i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if t.data.(i).prio < t.data.(parent).prio then begin
          swap t i parent;
          sift_up t parent
        end
      end

    let rec sift_down t i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < t.size && t.data.(l).prio < t.data.(!smallest).prio then smallest := l;
      if r < t.size && t.data.(r).prio < t.data.(!smallest).prio then smallest := r;
      if !smallest <> i then begin
        swap t i !smallest;
        sift_down t !smallest
      end

    let push t ~priority value =
      let entry = { prio = priority; value } in
      if Array.length t.data = 0 then t.data <- Array.make 8 entry;
      grow t;
      t.data.(t.size) <- entry;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)

    let pop_min t =
      if t.size = 0 then None
      else begin
        let top = t.data.(0) in
        t.size <- t.size - 1;
        if t.size > 0 then begin
          t.data.(0) <- t.data.(t.size);
          sift_down t 0
        end;
        Some (top.prio, top.value)
      end

    let peek_min t = if t.size = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

    let clear t = t.size <- 0
  end

  module Shortest_path = struct
    type path = { nodes : int list; edges : int list; cost : float }

    (* Dijkstra with lazy-deletion heap.  parent.(v) = (u, edge) used to
       reach v on the current best path. *)
    let dijkstra_internal g ~cost ~source ~target =
      let n = Noc_graph.Intgraph.node_count g in
      if source < 0 || source >= n then invalid_arg "Shortest_path: bad source";
      let dist = Array.make n infinity in
      let parent_node = Array.make n (-1) in
      let parent_edge = Array.make n (-1) in
      let settled = Array.make n false in
      let heap = Priority_queue.create () in
      dist.(source) <- 0.0;
      Priority_queue.push heap ~priority:0.0 source;
      let stop = ref false in
      while (not !stop) && not (Priority_queue.is_empty heap) do
        match Priority_queue.pop_min heap with
        | None -> stop := true
        | Some (d, u) ->
          if not settled.(u) then begin
            settled.(u) <- true;
            (match target with Some t when t = u -> stop := true | _ -> ());
            if not !stop then
              Noc_graph.Intgraph.iter_succ g u (fun v eid ->
                  if not settled.(v) then
                    match cost ~edge:eid ~src:u ~dst:v with
                    | None -> ()
                    | Some c ->
                      if c < 0.0 then invalid_arg "Shortest_path: negative cost";
                      let nd = d +. c in
                      if nd < dist.(v) then begin
                        dist.(v) <- nd;
                        parent_node.(v) <- u;
                        parent_edge.(v) <- eid;
                        Priority_queue.push heap ~priority:nd v
                      end)
          end
      done;
      (dist, parent_node, parent_edge)

    let rebuild ~source ~target dist parent_node parent_edge =
      if dist.(target) = infinity then None
      else begin
        let rec walk v nodes edges =
          if v = source then (v :: nodes, edges)
          else walk parent_node.(v) (v :: nodes) (parent_edge.(v) :: edges)
        in
        let nodes, edges = walk target [] [] in
        Some { nodes; edges; cost = dist.(target) }
      end

    let dijkstra g ~cost ~source ~target =
      let n = Noc_graph.Intgraph.node_count g in
      if target < 0 || target >= n then invalid_arg "Shortest_path: bad target";
      let dist, pnode, pedge = dijkstra_internal g ~cost ~source ~target:(Some target) in
      rebuild ~source ~target dist pnode pedge

    let dijkstra_all g ~cost ~source =
      let dist, _, pedge = dijkstra_internal g ~cost ~source ~target:None in
      (dist, pedge)

    let hop_path g ~source ~target =
      dijkstra g ~cost:(fun ~edge:_ ~src:_ ~dst:_ -> Some 1.0) ~source ~target
  end

  module Tdma = struct
    module Noc_config = Noc_arch.Noc_config

    let choose_spread ~slots ~candidates ~count =
      if count <= 0 then Some []
      else begin
        let candidates = Array.of_list (List.sort_uniq compare candidates) in
        let n = Array.length candidates in
        if n < count then None
        else begin
          let taken = Array.make n false in
          let chosen = ref [] in
          let cyclic_dist a b =
            let d = abs (a - b) in
            min d (slots - d)
          in
          for k = 0 to count - 1 do
            let ideal =
              if !chosen = [] then candidates.(0)
              else (candidates.(0) + (k * slots / count)) mod slots
            in
            let best = ref (-1) in
            let best_d = ref max_int in
            for i = 0 to n - 1 do
              if not taken.(i) then begin
                let d = cyclic_dist candidates.(i) ideal in
                if d < !best_d then begin
                  best_d := d;
                  best := i
                end
              end
            done;
            taken.(!best) <- true;
            chosen := candidates.(!best) :: !chosen
          done;
          Some (List.sort compare !chosen)
        end
      end

    let max_start_gap ~slots ~starts =
      match List.sort compare starts with
      | [] -> invalid_arg "Tdma.max_start_gap: no starts"
      | first :: _ as sorted ->
        (* Gap between consecutive reserved starts, cyclically: a packet
           arriving just after start s_i waits until s_{i+1}. *)
        let rec gaps acc = function
          | [ last ] -> (first + slots - last) :: acc
          | a :: (b :: _ as rest) -> gaps ((b - a) :: acc) rest
          | [] -> acc
        in
        List.fold_left max 0 (gaps [] sorted)

    let worst_case_latency_ns ~config ~starts ~hops =
      let gap = max_start_gap ~slots:config.Noc_config.slots ~starts in
      float_of_int (gap + hops) *. Noc_config.slot_duration_ns config
  end

  module Config = Noc_arch.Noc_config

  let pick_starts ~config ~candidates ~needed ~hops ~lat_req =
    let slots = config.Config.slots in
    let n_candidates = List.length candidates in
    let rec try_count k =
      if k > n_candidates then
        Error
          (Printf.sprintf "cannot meet latency %.0f ns (feasible starts %d, needed slots %d)"
             lat_req n_candidates needed)
      else
        match Tdma.choose_spread ~slots ~candidates ~count:k with
        | None -> Error "not enough free aligned slots"
        | Some starts ->
          let lat = Tdma.worst_case_latency_ns ~config ~starts ~hops in
          if lat <= lat_req then Ok starts else try_count (k + 1)
    in
    if n_candidates < needed then
      Error (Printf.sprintf "only %d aligned slots free, flow needs %d" n_candidates needed)
    else try_count needed
end

(* --- priority queue --------------------------------------------------- *)

let test_pq_empty () =
  let q = Pq.create () in
  Alcotest.(check bool) "empty" true (Pq.is_empty q);
  Alcotest.(check bool) "pop none" true (Pq.pop_min q = None)

let test_pq_ordering () =
  let q = Pq.create () in
  List.iter (fun p -> Pq.push q ~priority:p (int_of_float p)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> match Pq.pop_min q with Some (p, _) -> p | None -> nan) in
  Alcotest.(check (list (float 0.0))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order

let test_pq_peek () =
  let q = Pq.create () in
  Pq.push q ~priority:2.0 20;
  Pq.push q ~priority:1.0 10;
  (match Pq.peek_min q with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "peek priority" 1.0 p;
    Alcotest.(check int) "peek value" 10 v
  | None -> Alcotest.fail "expected element");
  Alcotest.(check int) "peek does not pop" 2 (Pq.length q)

let test_pq_duplicates () =
  let q = Pq.create () in
  Pq.push q ~priority:1.0 0;
  Pq.push q ~priority:1.0 1;
  Alcotest.(check int) "both kept" 2 (Pq.length q)

let test_pq_clear () =
  let q = Pq.create () in
  Pq.push q ~priority:1.0 0;
  Pq.clear q;
  Alcotest.(check bool) "cleared" true (Pq.is_empty q)

let prop_pq_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun xs ->
      let q = Pq.create () in
      List.iteri (fun i x -> Pq.push q ~priority:x i) xs;
      let rec drain acc =
        match Pq.pop_min q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* --- intgraph ---------------------------------------------------------- *)

let test_graph_basic () =
  let g = G.create ~directed:true ~nodes:3 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  Alcotest.(check int) "first id" 0 e0;
  Alcotest.(check int) "second id" 1 e1;
  Alcotest.(check int) "nodes" 3 (G.node_count g);
  Alcotest.(check int) "edges" 2 (G.edge_count g);
  Alcotest.(check (list (pair int int))) "succ 0" [ (1, 0) ] (G.succ g 0);
  Alcotest.(check bool) "mem" true (G.mem_edge g 0 1);
  Alcotest.(check bool) "directed: no reverse" false (G.mem_edge g 1 0)

let test_graph_undirected_reverse () =
  let g = G.create ~directed:false ~nodes:2 in
  ignore (G.add_edge g 0 1);
  Alcotest.(check bool) "forward" true (G.mem_edge g 0 1);
  Alcotest.(check bool) "backward" true (G.mem_edge g 1 0);
  Alcotest.(check int) "one logical edge" 1 (G.edge_count g)

let test_graph_parallel_edges () =
  let g = G.create ~directed:true ~nodes:2 in
  let a = G.add_edge g 0 1 in
  let b = G.add_edge g 0 1 in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check int) "degree" 2 (G.degree g 0)

let test_graph_out_of_range () =
  let g = G.create ~directed:true ~nodes:2 in
  Alcotest.check_raises "bad node" (Invalid_argument "Intgraph: node out of range") (fun () ->
      ignore (G.add_edge g 0 5))

let test_graph_fold_edges () =
  let g = G.create ~directed:true ~nodes:3 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  let collected = G.fold_edges g ~init:[] ~f:(fun acc u v id -> (u, v, id) :: acc) in
  Alcotest.(check (list (triple int int int))) "insertion order" [ (1, 2, 1); (0, 1, 0) ] collected

(* --- components -------------------------------------------------------- *)

let test_components_isolated () =
  let g = G.create ~directed:false ~nodes:3 in
  Alcotest.(check (list (list int))) "three singletons" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Components.connected_components g)

let test_components_chain () =
  let g = G.create ~directed:false ~nodes:4 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  Alcotest.(check (list (list int))) "chain + isolated" [ [ 0; 1; 2 ]; [ 3 ] ]
    (Components.connected_components g)

let test_components_rejects_directed () =
  let g = G.create ~directed:true ~nodes:2 in
  Alcotest.check_raises "directed"
    (Invalid_argument "Components.connected_components: directed graph") (fun () ->
      ignore (Components.connected_components g))

let test_component_ids () =
  let g = G.create ~directed:false ~nodes:4 in
  ignore (G.add_edge g 2 3);
  let ids = Components.component_ids g in
  Alcotest.(check bool) "2,3 same" true (ids.(2) = ids.(3));
  Alcotest.(check bool) "0,1 differ" true (ids.(0) <> ids.(1))

let test_reachable_directed () =
  let g = G.create ~directed:true ~nodes:3 in
  ignore (G.add_edge g 0 1);
  (* 2 is unreachable from 0; 1 cannot reach back *)
  Alcotest.(check (list int)) "from 0" [ 0; 1 ] (Components.reachable g 0);
  Alcotest.(check (list int)) "from 1" [ 1 ] (Components.reachable g 1)

let test_is_connected () =
  let g = G.create ~directed:false ~nodes:2 in
  Alcotest.(check bool) "disconnected" false (Components.is_connected g);
  ignore (G.add_edge g 0 1);
  Alcotest.(check bool) "connected" true (Components.is_connected g)

(* Random graph: DFS components must agree with union-find. *)
let prop_components_match_union_find =
  QCheck.Test.make ~name:"DFS components = union-find groups" ~count:100
    QCheck.(pair small_int (list (pair (int_bound 19) (int_bound 19))))
    (fun (_, edges) ->
      let n = 20 in
      let g = G.create ~directed:false ~nodes:n in
      let uf = Uf.create n in
      List.iter
        (fun (u, v) ->
          if u <> v then begin
            ignore (G.add_edge g u v);
            Uf.union uf u v
          end)
        edges;
      Components.connected_components g = Uf.groups uf)

(* --- dijkstra ----------------------------------------------------------- *)

let unit_cost ~edge:_ ~src:_ ~dst:_ = Some 1.0

let line_graph n =
  let g = G.create ~directed:true ~nodes:n in
  for i = 0 to n - 2 do
    ignore (G.add_edge g i (i + 1))
  done;
  g

let test_dijkstra_line () =
  let g = line_graph 5 in
  match Sp.dijkstra g ~cost:unit_cost ~source:0 ~target:4 with
  | Some p ->
    Alcotest.(check (float 1e-9)) "cost 4" 4.0 p.Sp.cost;
    Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3; 4 ] p.Sp.nodes;
    Alcotest.(check (list int)) "edges" [ 0; 1; 2; 3 ] p.Sp.edges
  | None -> Alcotest.fail "path expected"

let test_dijkstra_unreachable () =
  let g = line_graph 3 in
  Alcotest.(check bool) "no reverse path" true
    (Sp.dijkstra g ~cost:unit_cost ~source:2 ~target:0 = None)

let test_dijkstra_source_is_target () =
  let g = line_graph 2 in
  match Sp.dijkstra g ~cost:unit_cost ~source:0 ~target:0 with
  | Some p ->
    Alcotest.(check (float 0.0)) "zero cost" 0.0 p.Sp.cost;
    Alcotest.(check (list int)) "trivial" [ 0 ] p.Sp.nodes
  | None -> Alcotest.fail "trivial path expected"

let test_dijkstra_prefers_cheap_detour () =
  (* 0->1 expensive direct, 0->2->1 cheap. *)
  let g = G.create ~directed:true ~nodes:3 in
  let direct = G.add_edge g 0 1 in
  ignore (G.add_edge g 0 2);
  ignore (G.add_edge g 2 1);
  let cost ~edge ~src:_ ~dst:_ = if edge = direct then Some 10.0 else Some 1.0 in
  match Sp.dijkstra g ~cost ~source:0 ~target:1 with
  | Some p ->
    Alcotest.(check (float 1e-9)) "detour cost" 2.0 p.Sp.cost;
    Alcotest.(check (list int)) "via 2" [ 0; 2; 1 ] p.Sp.nodes
  | None -> Alcotest.fail "path expected"

let test_dijkstra_respects_unusable_edges () =
  let g = line_graph 3 in
  let cost ~edge ~src:_ ~dst:_ = if edge = 1 then None else Some 1.0 in
  Alcotest.(check bool) "blocked" true (Sp.dijkstra g ~cost ~source:0 ~target:2 = None)

let test_dijkstra_negative_cost_rejected () =
  let g = line_graph 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Shortest_path: negative cost") (fun () ->
      ignore
        (Sp.dijkstra g ~cost:(fun ~edge:_ ~src:_ ~dst:_ -> Some (-1.0)) ~source:0 ~target:1))

let test_dijkstra_all_distances () =
  let g = line_graph 4 in
  let dist, parent = Sp.dijkstra_all g ~cost:unit_cost ~source:0 in
  Alcotest.(check (array (float 1e-9))) "distances" [| 0.0; 1.0; 2.0; 3.0 |] dist;
  Alcotest.(check int) "source parent" (-1) parent.(0)

let test_hop_path_equals_unit_dijkstra () =
  let g = G.create ~directed:true ~nodes:4 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 3);
  ignore (G.add_edge g 0 2);
  ignore (G.add_edge g 2 3);
  match Sp.hop_path g ~source:0 ~target:3 with
  | Some p -> Alcotest.(check (float 1e-9)) "2 hops" 2.0 p.Sp.cost
  | None -> Alcotest.fail "path expected"

(* Random DAG-ish graphs: dijkstra with unit costs = BFS distance. *)
let prop_dijkstra_unit_equals_bfs =
  QCheck.Test.make ~name:"unit-cost dijkstra = BFS" ~count:100
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun edges ->
      let n = 15 in
      let g = G.create ~directed:true ~nodes:n in
      List.iter (fun (u, v) -> if u <> v then ignore (G.add_edge g u v)) edges;
      (* BFS from 0 *)
      let dist = Array.make n max_int in
      dist.(0) <- 0;
      let q = Queue.create () in
      Queue.push 0 q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        G.iter_succ g u (fun v _ ->
            if dist.(v) = max_int then begin
              dist.(v) <- dist.(u) + 1;
              Queue.push v q
            end)
      done;
      let ddist, _ = Sp.dijkstra_all g ~cost:unit_cost ~source:0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        let bfs = if dist.(v) = max_int then infinity else float_of_int dist.(v) in
        if bfs <> ddist.(v) then ok := false
      done;
      !ok)

(* --- the kernel against its reference ----------------------------------- *)

module Mesh = Noc_arch.Mesh

(* Few distinct priorities, so most pops break a tie. *)
let prop_heap_matches_reference =
  QCheck.Test.make ~name:"heap pops = reference heap pops (ties included)" ~count:500
    QCheck.(list (option (int_bound 3)))
    (fun ops ->
      let q = Pq.create ~capacity:1 () and r = Reference.Priority_queue.create () in
      let out = ref [] and expect = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | Some p ->
            Pq.push q ~priority:(float_of_int p) i;
            Reference.Priority_queue.push r ~priority:(float_of_int p) i
          | None ->
            out := Pq.pop_min q :: !out;
            expect := Reference.Priority_queue.pop_min r :: !expect)
        ops;
      let rec drain () =
        match (Pq.pop_min q, Reference.Priority_queue.pop_min r) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      !out = !expect && drain ())

(* A mesh, torus or express-channel grid with random per-link state:
   unusable links (no slots left), blacklisted links (a detour's
   exclusions) and utilizations from a small set, so equal-cost paths
   abound and the tie order decides the route. *)
type net = { mesh : Mesh.t; usable : bool array; black : bool array; util : float array }

let net_gen =
  QCheck.Gen.(
    map
      (fun (shape, w, h, seed) ->
        let st = Random.State.make [| seed |] in
        let kind = if shape = 1 then Mesh.Torus else Mesh.Mesh in
        let mesh = Mesh.create_kind ~kind ~width:w ~height:h in
        let mesh =
          if shape <> 2 then mesh
          else
            let n = w * h in
            let pairs =
              List.init 3 (fun _ -> (Random.State.int st n, Random.State.int st n))
              |> List.filter (fun (a, b) ->
                     a <> b
                     && Mesh.link_between mesh ~src:a ~dst:b = None
                     && Mesh.link_between mesh ~src:b ~dst:a = None)
              |> List.sort_uniq (fun (a, b) (c, d) -> compare (min a b, max a b) (min c d, max c d))
            in
            Mesh.with_express mesh ~express:pairs
        in
        let links = Mesh.link_count mesh in
        let usable = Array.init links (fun _ -> Random.State.int st 5 > 0) in
        let black = Array.init links (fun _ -> Random.State.int st 10 = 0) in
        let util = Array.init links (fun _ -> [| 0.0; 0.25; 0.5; 1.0 |].(Random.State.int st 4)) in
        { mesh; usable; black; util })
      (quad (int_bound 2) (int_range 1 5) (int_range 1 5) int))

let net_arb =
  QCheck.make net_gen ~print:(fun n ->
      Format.asprintf "%a, %d links" Mesh.pp n.mesh (Mesh.link_count n.mesh))

let net_cost n ~edge ~src:_ ~dst:_ =
  if n.black.(edge) || not n.usable.(edge) then infinity else 1.0 +. (4.0 *. n.util.(edge))

let net_cost_opt n ~edge ~src ~dst =
  let c = net_cost n ~edge ~src ~dst in
  if c = infinity then None else Some c

(* Every source, all targets and each single target, on one reused
   scratch (so a stale entry from an earlier search would show). *)
let prop_search_matches_reference =
  QCheck.Test.make ~name:"search = reference Dijkstra (edges, distances, parents)" ~count:300
    net_arb (fun n ->
      let g = Mesh.graph n.mesh and adj = Mesh.adjacency n.mesh in
      let sc = Sp.scratch adj in
      let costs =
        Array.init (Sp.arc_count adj) (fun k ->
            net_cost n ~edge:(Sp.arc_edge adj k) ~src:0 ~dst:0)
      in
      let switches = Mesh.switch_count n.mesh in
      let ok = ref true in
      for source = 0 to switches - 1 do
        let rdist, rparent = Reference.Shortest_path.dijkstra_all g ~cost:(net_cost_opt n) ~source in
        let dist, parent = Sp.dijkstra_all g ~cost:(net_cost_opt n) ~source in
        if dist <> rdist || parent <> rparent then ok := false;
        Sp.search sc adj ~costs ~source ~target:(-1);
        if Sp.distances sc <> rdist then ok := false;
        for target = 0 to switches - 1 do
          let reference = Reference.Shortest_path.dijkstra g ~cost:(net_cost_opt n) ~source ~target in
          Sp.search sc adj ~costs ~source ~target;
          let edges = Sp.path_edges sc ~source ~target in
          (match (reference, edges) with
          | None, None -> ()
          | Some p, Some e ->
            if p.Reference.Shortest_path.edges <> e || p.Reference.Shortest_path.cost <> Sp.distance sc target
            then ok := false
          | _ -> ok := false);
          match (reference, Sp.dijkstra g ~cost:(net_cost_opt n) ~source ~target) with
          | None, None -> ()
          | Some p, Some q ->
            if
              p.Reference.Shortest_path.nodes <> q.Sp.nodes
              || p.Reference.Shortest_path.edges <> q.Sp.edges
              || p.Reference.Shortest_path.cost <> q.Sp.cost
            then ok := false
          | _ -> ok := false
        done
      done;
      !ok)

(* Candidate starts over table sizes up to 70 (multi-word masks), with
   latency bounds at, between and beyond the slot-duration steps, so
   the escalation stops at every count and the wrap-around gap often
   decides. *)
let prop_pick_starts_matches_reference =
  QCheck.Test.make ~name:"pick_starts = reference choose_spread escalation" ~count:1000
    QCheck.(make Gen.(quad (int_range 1 70) (int_range 1 9) (int_range 1 6) int))
    (fun (slots, needed, hops, seed) ->
      let st = Random.State.make [| seed |] in
      let config = { Noc_arch.Noc_config.default with Noc_arch.Noc_config.slots } in
      let density = Random.State.int st 4 in
      let starts = List.filter (fun _ -> Random.State.int st 4 <= density) (List.init slots Fun.id) in
      let slot_ns = Noc_arch.Noc_config.slot_duration_ns config in
      let lat_req =
        match Random.State.int st 4 with
        | 0 -> infinity
        | 1 -> slot_ns *. float_of_int (Random.State.int st (slots + 8))
        | _ -> slot_ns *. (float_of_int (Random.State.int st (slots + 8)) +. 0.5)
      in
      let candidates = Array.of_list starts and taken = Bytes.make slots 'x' in
      let n = Array.length candidates in
      Path_select.pick_starts ~config ~candidates ~n ~taken ~needed ~hops ~lat_req
      = Reference.pick_starts ~config ~candidates:starts ~needed ~hops ~lat_req)

let prop_choose_spread_matches_reference =
  QCheck.Test.make ~name:"Tdma.choose_spread = reference (unsorted, duplicates)" ~count:1000
    QCheck.(triple (int_range 1 70) (int_range (-1) 12) (list_of_size Gen.(0 -- 30) (int_bound 69)))
    (fun (slots, count, candidates) ->
      let candidates = List.map (fun c -> c mod slots) candidates in
      Noc_arch.Tdma.choose_spread ~slots ~candidates ~count
      = Reference.Tdma.choose_spread ~slots ~candidates ~count)

(* [max_start_gap] now reads the gap off marked candidates: the same
   value for unsorted lists with duplicates, and the same error for
   none. *)
let prop_max_start_gap_matches_reference =
  QCheck.Test.make ~name:"Tdma.max_start_gap = reference (unsorted, duplicates)" ~count:1000
    QCheck.(pair (int_range 1 70) (list_of_size Gen.(0 -- 12) (int_bound 139)))
    (fun (slots, starts) ->
      let run f = try Ok (f ~slots ~starts) with Invalid_argument m -> Error m in
      run Noc_arch.Tdma.max_start_gap = run Reference.Tdma.max_start_gap)

(* --- union-find --------------------------------------------------------- *)

let test_uf_basics () =
  let uf = Uf.create 4 in
  Alcotest.(check int) "initial count" 4 (Uf.count uf);
  Uf.union uf 0 1;
  Alcotest.(check bool) "same" true (Uf.same uf 0 1);
  Alcotest.(check bool) "not same" false (Uf.same uf 0 2);
  Alcotest.(check int) "count after union" 3 (Uf.count uf)

let test_uf_union_idempotent () =
  let uf = Uf.create 3 in
  Uf.union uf 0 1;
  Uf.union uf 0 1;
  Alcotest.(check int) "count stable" 2 (Uf.count uf)

let test_uf_groups () =
  let uf = Uf.create 5 in
  Uf.union uf 0 4;
  Uf.union uf 1 2;
  Alcotest.(check (list (list int))) "groups" [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ] (Uf.groups uf)

let test_uf_transitivity () =
  let uf = Uf.create 4 in
  Uf.union uf 0 1;
  Uf.union uf 1 2;
  Alcotest.(check bool) "0~2" true (Uf.same uf 0 2)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pq_sorts; prop_components_match_union_find; prop_dijkstra_unit_equals_bfs ]

let () =
  Alcotest.run "noc_graph"
    [
      ( "priority_queue",
        [
          Alcotest.test_case "empty" `Quick test_pq_empty;
          Alcotest.test_case "ordering" `Quick test_pq_ordering;
          Alcotest.test_case "peek" `Quick test_pq_peek;
          Alcotest.test_case "duplicates" `Quick test_pq_duplicates;
          Alcotest.test_case "clear" `Quick test_pq_clear;
        ] );
      ( "intgraph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "undirected reverse" `Quick test_graph_undirected_reverse;
          Alcotest.test_case "parallel edges" `Quick test_graph_parallel_edges;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "fold edges" `Quick test_graph_fold_edges;
        ] );
      ( "components",
        [
          Alcotest.test_case "isolated" `Quick test_components_isolated;
          Alcotest.test_case "chain" `Quick test_components_chain;
          Alcotest.test_case "rejects directed" `Quick test_components_rejects_directed;
          Alcotest.test_case "component ids" `Quick test_component_ids;
          Alcotest.test_case "reachable directed" `Quick test_reachable_directed;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "line graph" `Quick test_dijkstra_line;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "source=target" `Quick test_dijkstra_source_is_target;
          Alcotest.test_case "cheap detour" `Quick test_dijkstra_prefers_cheap_detour;
          Alcotest.test_case "unusable edges" `Quick test_dijkstra_respects_unusable_edges;
          Alcotest.test_case "negative cost rejected" `Quick test_dijkstra_negative_cost_rejected;
          Alcotest.test_case "single-source distances" `Quick test_dijkstra_all_distances;
          Alcotest.test_case "hop path" `Quick test_hop_path_equals_unit_dijkstra;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "idempotent union" `Quick test_uf_union_idempotent;
          Alcotest.test_case "groups" `Quick test_uf_groups;
          Alcotest.test_case "transitivity" `Quick test_uf_transitivity;
        ] );
      ("properties", qcheck_cases);
      ( "kernel oracles",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heap_matches_reference;
            prop_search_matches_reference;
            prop_pick_starts_matches_reference;
            prop_choose_spread_matches_reference;
            prop_max_start_gap_matches_reference;
          ] );
    ]
