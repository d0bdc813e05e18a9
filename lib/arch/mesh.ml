type kind =
  | Mesh
  | Torus

type direction =
  | East
  | West
  | North
  | South

type t = {
  kind : kind;
  width : int;
  height : int;
  graph : Noc_graph.Intgraph.t;
  adjacency : Noc_graph.Shortest_path.adjacency; (* [graph]'s arcs, for routing *)
  endpoints : (int * int) array; (* link id -> (src, dst) *)
  by_pair : (int * int, int) Hashtbl.t; (* (src, dst) -> link id *)
}

let switch_index ~width ~x ~y = (y * width) + x

let create_kind ~kind ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Mesh.create: non-positive dimension";
  let n = width * height in
  let g = Noc_graph.Intgraph.create ~directed:true ~nodes:n in
  let links = ref [] in
  let by_pair = Hashtbl.create (4 * n) in
  let add u v =
    let id = Noc_graph.Intgraph.add_edge g u v in
    links := (u, v) :: !links;
    Hashtbl.replace by_pair (u, v) id
  in
  let add_bidir u v =
    add u v;
    add v u
  in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let u = switch_index ~width ~x ~y in
      if x + 1 < width then add_bidir u (switch_index ~width ~x:(x + 1) ~y);
      if y + 1 < height then add_bidir u (switch_index ~width ~x ~y:(y + 1))
    done
  done;
  (* Torus wraparound: only on dimensions > 2, so the wrap link is not
     parallel to an existing neighbour link. *)
  if kind = Torus then begin
    if width > 2 then
      for y = 0 to height - 1 do
        add_bidir (switch_index ~width ~x:(width - 1) ~y) (switch_index ~width ~x:0 ~y)
      done;
    if height > 2 then
      for x = 0 to width - 1 do
        add_bidir (switch_index ~width ~x ~y:(height - 1)) (switch_index ~width ~x ~y:0)
      done
  end;
  {
    kind;
    width;
    height;
    graph = g;
    adjacency = Noc_graph.Shortest_path.adjacency g;
    endpoints = Array.of_list (List.rev !links);
    by_pair;
  }

let create ~width ~height = create_kind ~kind:Mesh ~width ~height

let with_express t ~express =
  let n = t.width * t.height in
  let g = Noc_graph.Intgraph.create ~directed:true ~nodes:n in
  let links = ref [] in
  let by_pair = Hashtbl.create (4 * n) in
  let add u v =
    let id = Noc_graph.Intgraph.add_edge g u v in
    links := (u, v) :: !links;
    Hashtbl.replace by_pair (u, v) id
  in
  (* replay the grid links in id order, then append the express pairs *)
  Array.iter (fun (u, v) -> add u v) t.endpoints;
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Mesh.with_express: switch out of range";
      if a = b then invalid_arg "Mesh.with_express: self loop";
      if Hashtbl.mem by_pair (a, b) || Hashtbl.mem by_pair (b, a) then
        invalid_arg "Mesh.with_express: pair already linked";
      add a b;
      add b a)
    express;
  {
    t with
    graph = g;
    adjacency = Noc_graph.Shortest_path.adjacency g;
    endpoints = Array.of_list (List.rev !links);
    by_pair;
  }

let kind t = t.kind
let width t = t.width
let height t = t.height
let switch_count t = t.width * t.height
let link_count t = Array.length t.endpoints
let graph t = t.graph
let adjacency t = t.adjacency

let coord t s =
  if s < 0 || s >= switch_count t then invalid_arg "Mesh.coord: bad switch";
  (s mod t.width, s / t.width)

let switch_at t ~x ~y =
  if x < 0 || x >= t.width || y < 0 || y >= t.height then
    invalid_arg "Mesh.switch_at: out of grid";
  switch_index ~width:t.width ~x ~y

let link_endpoints t id =
  if id < 0 || id >= link_count t then invalid_arg "Mesh.link_endpoints: bad link";
  t.endpoints.(id)

let link_between t ~src ~dst = Hashtbl.find_opt t.by_pair (src, dst)

let wraps t dim = t.kind = Torus && dim > 2

let neighbor_toward t s dir =
  let x, y = coord t s in
  let dx, dy = match dir with East -> (1, 0) | West -> (-1, 0) | North -> (0, -1) | South -> (0, 1) in
  let nx = x + dx and ny = y + dy in
  let wrap v dim = ((v mod dim) + dim) mod dim in
  if nx >= 0 && nx < t.width && ny >= 0 && ny < t.height then
    Some (switch_at t ~x:nx ~y:ny)
  else if (nx < 0 || nx >= t.width) && wraps t t.width then
    Some (switch_at t ~x:(wrap nx t.width) ~y)
  else if (ny < 0 || ny >= t.height) && wraps t t.height then
    Some (switch_at t ~x ~y:(wrap ny t.height))
  else None

(* Signed per-axis displacement under minimal routing: the shorter way
   around on a wrapping axis. *)
let axis_delta t ~from_v ~to_v ~dim =
  let d = to_v - from_v in
  if not (wraps t dim) then d
  else begin
    let fwd = ((d mod dim) + dim) mod dim in
    let bwd = fwd - dim in
    if fwd <= -bwd then fwd else bwd
  end

let manhattan t a b =
  let xa, ya = coord t a and xb, yb = coord t b in
  abs (axis_delta t ~from_v:xa ~to_v:xb ~dim:t.width)
  + abs (axis_delta t ~from_v:ya ~to_v:yb ~dim:t.height)

let xy_route t ~src ~dst =
  let xs, ys = coord t src and xd, yd = coord t dst in
  let wrap v dim = ((v mod dim) + dim) mod dim in
  let step_x = if axis_delta t ~from_v:xs ~to_v:xd ~dim:t.width >= 0 then 1 else -1 in
  let step_y = if axis_delta t ~from_v:ys ~to_v:yd ~dim:t.height >= 0 then 1 else -1 in
  let rec go x y acc =
    if x <> xd then begin
      let nx = wrap (x + step_x) t.width in
      let l = Option.get (link_between t ~src:(switch_at t ~x ~y) ~dst:(switch_at t ~x:nx ~y)) in
      go nx y (l :: acc)
    end
    else if y <> yd then begin
      let ny = wrap (y + step_y) t.height in
      let l = Option.get (link_between t ~src:(switch_at t ~x ~y) ~dst:(switch_at t ~x ~y:ny)) in
      go x ny (l :: acc)
    end
    else List.rev acc
  in
  go xs ys []

let center t = switch_at t ~x:((t.width - 1) / 2) ~y:((t.height - 1) / 2)

let growth_sequence ~max_dim =
  if max_dim <= 0 then invalid_arg "Mesh.growth_sequence";
  let rec go w h acc =
    if w > max_dim then List.rev acc
    else if w = h then go (w + 1) h ((w, h) :: acc)
    else go w (h + 1) ((w, h) :: acc)
  in
  go 1 1 []

let pp ppf t =
  Format.fprintf ppf "%dx%d %s (%d switches)" t.width t.height
    (match t.kind with Mesh -> "mesh" | Torus -> "torus")
    (switch_count t)
