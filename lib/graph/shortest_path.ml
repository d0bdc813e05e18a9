(* Compressed rows: the arcs of node [u] are [first.(u) .. first.(u+1)-1]
   of [dst]/[edge], in insertion order. *)
type adjacency = { first : int array; dst : int array; edge : int array }

let adjacency g =
  let n = Intgraph.node_count g in
  let first = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    first.(u + 1) <- first.(u) + Intgraph.degree g u
  done;
  let dst = Array.make first.(n) 0 and edge = Array.make first.(n) 0 in
  for u = 0 to n - 1 do
    let k = ref first.(u) in
    Intgraph.iter_succ g u (fun v eid ->
        dst.(!k) <- v;
        edge.(!k) <- eid;
        incr k)
  done;
  { first; dst; edge }

let node_count adj = Array.length adj.first - 1
let arc_count adj = Array.length adj.dst
let arc_edge adj k = adj.edge.(k)

type scratch = {
  dist : float array;
  parent_node : int array;
  parent_edge : int array;
  settled : Bytes.t;
  heap : Priority_queue.t;
}

(* Lazy deletion pushes at most once per relaxed arc plus the source,
   so the heap never grows past the arc count + 1. *)
let scratch adj =
  let n = node_count adj in
  {
    dist = Array.make n infinity;
    parent_node = Array.make n (-1);
    parent_edge = Array.make n (-1);
    settled = Bytes.make n '\000';
    heap = Priority_queue.create ~capacity:(Array.length adj.dst + 1) ();
  }

(* Dijkstra with a lazy-deletion heap.  parent_node.(v), parent_edge.(v)
   is the arc that reached v on the current best path. *)
let search sc adj ~costs ~source ~target =
  let n = node_count adj in
  if source < 0 || source >= n then invalid_arg "Shortest_path: bad source";
  let dist = sc.dist and settled = sc.settled and heap = sc.heap in
  (* Parents need no reset: only nodes this search reaches are read. *)
  Array.fill dist 0 n infinity;
  Bytes.fill settled 0 n '\000';
  Priority_queue.clear heap;
  dist.(source) <- 0.0;
  Priority_queue.push heap ~priority:0.0 source;
  let stop = ref false in
  while (not !stop) && not (Priority_queue.is_empty heap) do
    let d = Priority_queue.min_priority heap in
    let u = Priority_queue.pop heap in
    if Bytes.get settled u = '\000' then begin
      Bytes.set settled u '\001';
      if u = target then stop := true
      else
        for k = adj.first.(u) to adj.first.(u + 1) - 1 do
          let v = adj.dst.(k) in
          if Bytes.get settled v = '\000' then begin
            let c = costs.(k) in
            if c < 0.0 then invalid_arg "Shortest_path: negative cost";
            let nd = d +. c in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              sc.parent_node.(v) <- u;
              sc.parent_edge.(v) <- adj.edge.(k);
              Priority_queue.push heap ~priority:nd v
            end
          end
        done
    end
  done

let distance sc v = sc.dist.(v)
let distances sc = sc.dist

let path_edges sc ~source ~target =
  if sc.dist.(target) = infinity then None
  else begin
    let rec walk v edges =
      if v = source then edges else walk sc.parent_node.(v) (sc.parent_edge.(v) :: edges)
    in
    Some (walk target [])
  end

type path = { nodes : int list; edges : int list; cost : float }

(* The cost of every arc, [infinity] where [cost] says [None]. *)
let arc_costs adj ~cost =
  let costs = Array.make (arc_count adj) infinity in
  for u = 0 to node_count adj - 1 do
    for k = adj.first.(u) to adj.first.(u + 1) - 1 do
      match cost ~edge:adj.edge.(k) ~src:u ~dst:adj.dst.(k) with
      | Some c -> costs.(k) <- c
      | None -> ()
    done
  done;
  costs

let dijkstra g ~cost ~source ~target =
  let adj = adjacency g in
  if target < 0 || target >= node_count adj then invalid_arg "Shortest_path: bad target";
  let sc = scratch adj in
  search sc adj ~costs:(arc_costs adj ~cost) ~source ~target;
  Option.map
    (fun edges ->
      let rec nodes v acc = if v = source then v :: acc else nodes sc.parent_node.(v) (v :: acc) in
      { nodes = nodes target []; edges; cost = sc.dist.(target) })
    (path_edges sc ~source ~target)

let dijkstra_all g ~cost ~source =
  let adj = adjacency g in
  let sc = scratch adj in
  search sc adj ~costs:(arc_costs adj ~cost) ~source ~target:(-1);
  (sc.dist, sc.parent_edge)

let hop_path g ~source ~target = dijkstra g ~cost:(fun ~edge:_ ~src:_ ~dst:_ -> Some 1.0) ~source ~target
