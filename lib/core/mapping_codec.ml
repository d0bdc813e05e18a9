module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module Tracer = Noc_obs.Tracer

let format_version = 1

let magic = Printf.sprintf "nocmap-mapping %d" format_version

let fl x = Printf.sprintf "%h" x

let routing_token = function Config.Min_cost -> "min-cost" | Config.Xy -> "xy"
let kind_token = function Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"

let config_line (c : Config.t) =
  Printf.sprintf "config %s %d %d %d %d %d %d %s %s %s %s" (fl c.Config.freq_mhz)
    c.Config.link_width_bits c.Config.slots c.Config.slot_cycles c.Config.nis_per_switch
    (if c.Config.constrain_ni_links then 1 else 0)
    c.Config.max_mesh_dim (routing_token c.Config.routing) (kind_token c.Config.topology)
    (fl c.Config.placement_hw_factor)
    (fl c.Config.placement_spread_factor)

let route_line (r : Route.t) =
  Printf.sprintf "route %d %d %d %d %d %d %s %s %d%s %d%s" r.Route.flow_id r.Route.use_case
    r.Route.src_core r.Route.dst_core r.Route.src_switch r.Route.dst_switch
    (fl r.Route.bandwidth)
    (match r.Route.service with Route.Gt -> "gt" | Route.Be -> "be")
    (List.length r.Route.links)
    (String.concat "" (List.map (Printf.sprintf " %d") r.Route.links))
    (List.length r.Route.slot_starts)
    (String.concat "" (List.map (Printf.sprintf " %d") r.Route.slot_starts))

let state_line s =
  let nis = Resources.ni_budget_snapshot s in
  let res = Resources.reservations s in
  Printf.sprintf "state %d %d%s %d%s" (Resources.use_case s) (Array.length nis)
    (String.concat "" (Array.to_list (Array.map (fun b -> " " ^ fl b) nis)))
    (List.length res)
    (String.concat "" (List.map (fun (l, sl, o) -> Printf.sprintf " %d %d %d" l sl o) res))

(* Only plain grids are representable: [with_express] adds links the
   (kind, width, height) triple cannot reconstruct. *)
let plain_grid mesh =
  Mesh.link_count mesh
  = Mesh.link_count
      (Mesh.create_kind ~kind:(Mesh.kind mesh) ~width:(Mesh.width mesh) ~height:(Mesh.height mesh))

let encode_mapping (m : Mapping.t) =
  let mesh = m.Mapping.mesh in
  if not (plain_grid mesh) then None
  else begin
    let b = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
    line "%s" magic;
    line "%s" (config_line m.Mapping.config);
    line "mesh %s %d %d %d" (kind_token (Mesh.kind mesh)) (Mesh.width mesh) (Mesh.height mesh)
      (Mesh.link_count mesh);
    line "placement %d%s"
      (Array.length m.Mapping.placement)
      (String.concat ""
         (Array.to_list (Array.map (Printf.sprintf " %d") m.Mapping.placement)));
    line "groups %d" (List.length m.Mapping.groups);
    List.iter
      (fun g ->
        line "group %d%s" (List.length g)
          (String.concat "" (List.map (Printf.sprintf " %d") g)))
      m.Mapping.groups;
    line "routes %d" (List.length m.Mapping.routes);
    List.iter (fun r -> line "%s" (route_line r)) m.Mapping.routes;
    line "states %d" (Array.length m.Mapping.states);
    Array.iter (fun s -> line "%s" (state_line s)) m.Mapping.states;
    line "end";
    Some (Buffer.contents b)
  end

let encode m = Tracer.with_span ~cat:"codec" "mapping_codec.encode" (fun () -> encode_mapping m)

let digest m = Option.map (fun bytes -> Digest.to_hex (Digest.string bytes)) (encode m)

(* --- decoding ----------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* A token cursor over one line. *)
type cursor = { tokens : string array; mutable pos : int; what : string }

let cursor_of_line ~what line =
  { tokens = Array.of_list (String.split_on_char ' ' line); pos = 0; what }

let next cur =
  if cur.pos >= Array.length cur.tokens then bad "%s: truncated line" cur.what
  else begin
    let t = cur.tokens.(cur.pos) in
    cur.pos <- cur.pos + 1;
    t
  end

let finished cur =
  if cur.pos <> Array.length cur.tokens then bad "%s: trailing tokens" cur.what

let int_tok cur =
  match int_of_string_opt (next cur) with
  | Some i -> i
  | None -> bad "%s: expected an integer" cur.what

let float_tok cur =
  match float_of_string_opt (next cur) with
  | Some f -> f
  | None -> bad "%s: expected a float" cur.what

let keyword cur w =
  let t = next cur in
  if not (String.equal t w) then bad "%s: expected '%s', got '%s'" cur.what w t

let counted cur f =
  let n = int_tok cur in
  if n < 0 then bad "%s: negative count" cur.what;
  List.init n (fun _ -> f cur)

let routing_of cur =
  match next cur with
  | "min-cost" -> Config.Min_cost
  | "xy" -> Config.Xy
  | t -> bad "%s: unknown routing '%s'" cur.what t

let kind_of cur =
  match next cur with
  | "mesh" -> Mesh.Mesh
  | "torus" -> Mesh.Torus
  | t -> bad "%s: unknown topology '%s'" cur.what t

type line_reader = { mutable lines : string list }

let read_line rd ~what =
  match rd.lines with
  | [] -> bad "%s: unexpected end of input" what
  | l :: rest ->
    rd.lines <- rest;
    cursor_of_line ~what l

let decode_config cur =
  keyword cur "config";
  let freq_mhz = float_tok cur in
  let link_width_bits = int_tok cur in
  let slots = int_tok cur in
  let slot_cycles = int_tok cur in
  let nis_per_switch = int_tok cur in
  let constrain_ni_links = int_tok cur <> 0 in
  let max_mesh_dim = int_tok cur in
  let routing = routing_of cur in
  let topology = kind_of cur in
  let placement_hw_factor = float_tok cur in
  let placement_spread_factor = float_tok cur in
  finished cur;
  {
    Config.freq_mhz;
    link_width_bits;
    slots;
    slot_cycles;
    nis_per_switch;
    constrain_ni_links;
    max_mesh_dim;
    routing;
    topology;
    placement_hw_factor;
    placement_spread_factor;
  }

let decode_route ~n_switch ~links cur =
  keyword cur "route";
  let flow_id = int_tok cur in
  let use_case = int_tok cur in
  let src_core = int_tok cur in
  let dst_core = int_tok cur in
  let src_switch = int_tok cur in
  let dst_switch = int_tok cur in
  let bandwidth = float_tok cur in
  let service =
    match next cur with
    | "gt" -> Route.Gt
    | "be" -> Route.Be
    | t -> bad "%s: unknown service '%s'" cur.what t
  in
  let route_links =
    counted cur (fun cur ->
        let l = int_tok cur in
        if l < 0 || l >= links then bad "%s: link %d out of range" cur.what l;
        l)
  in
  let slot_starts = counted cur int_tok in
  finished cur;
  if src_switch < 0 || src_switch >= n_switch || dst_switch < 0 || dst_switch >= n_switch then
    bad "%s: switch out of range" cur.what;
  {
    Route.flow_id;
    use_case;
    src_core;
    dst_core;
    src_switch;
    dst_switch;
    bandwidth;
    service;
    links = route_links;
    slot_starts;
  }

let decode_state ~config ~mesh cur =
  keyword cur "state";
  let use_case = int_tok cur in
  let ni_budget = Array.of_list (counted cur float_tok) in
  let reservations =
    counted cur (fun cur ->
        let l = int_tok cur in
        let s = int_tok cur in
        let o = int_tok cur in
        (l, s, o))
  in
  finished cur;
  match Resources.restore ~config ~mesh ~use_case ~ni_budget ~reservations with
  | state -> (use_case, state)
  | exception Invalid_argument m -> bad "%s: %s" cur.what m

let decode_text text =
  try
    let rd = { lines = String.split_on_char '\n' text } in
    let header = read_line rd ~what:"header" in
    let m = next header in
    if not (String.equal (m ^ " " ^ next header) magic) then bad "header: wrong magic/version";
    finished header;
    let config = decode_config (read_line rd ~what:"config") in
    (match Config.validate config with Ok () -> () | Error m -> bad "config: %s" m);
    let mesh =
      let cur = read_line rd ~what:"mesh" in
      keyword cur "mesh";
      let kind = kind_of cur in
      let width = int_tok cur in
      let height = int_tok cur in
      let links = int_tok cur in
      finished cur;
      if width <= 0 || height <= 0 then bad "mesh: non-positive dimension";
      (* Checked before [Mesh.create_kind] allocates: the validated
         config bounds the grid a dump may ask for. *)
      if width > config.Config.max_mesh_dim || height > config.Config.max_mesh_dim then
        bad "mesh: dimension above the config's growth cap %d" config.Config.max_mesh_dim;
      let mesh = Mesh.create_kind ~kind ~width ~height in
      if Mesh.link_count mesh <> links then bad "mesh: link count mismatch";
      mesh
    in
    let n_switch = Mesh.switch_count mesh in
    let links = Mesh.link_count mesh in
    let placement =
      let cur = read_line rd ~what:"placement" in
      keyword cur "placement";
      let p =
        Array.of_list
          (counted cur (fun cur ->
               let s = int_tok cur in
               if s < -1 || s >= n_switch then bad "%s: switch %d out of range" cur.what s;
               s))
      in
      finished cur;
      p
    in
    let groups =
      let cur = read_line rd ~what:"groups" in
      keyword cur "groups";
      let n = int_tok cur in
      finished cur;
      if n < 0 then bad "groups: negative count";
      List.init n (fun _ ->
          let cur = read_line rd ~what:"group" in
          keyword cur "group";
          let g = counted cur int_tok in
          finished cur;
          g)
    in
    let routes =
      let cur = read_line rd ~what:"routes" in
      keyword cur "routes";
      let n = int_tok cur in
      finished cur;
      if n < 0 then bad "routes: negative count";
      List.init n (fun _ -> decode_route ~n_switch ~links (read_line rd ~what:"route"))
    in
    let states =
      let cur = read_line rd ~what:"states" in
      keyword cur "states";
      let n = int_tok cur in
      finished cur;
      if n < 0 then bad "states: negative count";
      let pairs = List.init n (fun _ -> decode_state ~config ~mesh (read_line rd ~what:"state")) in
      let arr = Array.of_list (List.map snd pairs) in
      List.iteri
        (fun i (uc, _) -> if uc <> i then bad "state: use-case ids out of order")
        pairs;
      arr
    in
    let fin = read_line rd ~what:"end" in
    keyword fin "end";
    finished fin;
    (match rd.lines with
    | [] | [ "" ] -> ()
    | _ -> bad "end: trailing lines");
    Ok { Mapping.config; mesh; placement; routes; states; groups }
  with Bad msg -> Error msg

let decode text = Tracer.with_span ~cat:"codec" "mapping_codec.decode" (fun () -> decode_text text)
