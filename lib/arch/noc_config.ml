type routing = Min_cost | Xy

type t = {
  freq_mhz : Noc_util.Units.frequency;
  link_width_bits : int;
  slots : int;
  slot_cycles : int;
  nis_per_switch : int;
  constrain_ni_links : bool;
  max_mesh_dim : int;
  routing : routing;
  topology : Mesh.kind;
  placement_hw_factor : float;
  placement_spread_factor : float;
}

let default =
  {
    freq_mhz = 500.0;
    link_width_bits = 32;
    slots = 32;
    slot_cycles = 4;
    nis_per_switch = 8;
    constrain_ni_links = false;
    max_mesh_dim = 20;
    routing = Min_cost;
    topology = Mesh.Mesh;
    placement_hw_factor = 0.8;
    placement_spread_factor = 2.0;
  }

let with_freq t freq_mhz = { t with freq_mhz }

let link_capacity t =
  Noc_util.Units.link_capacity ~freq_mhz:t.freq_mhz ~width_bits:t.link_width_bits

let slot_bandwidth t =
  Noc_util.Units.mbps_per_slot ~capacity:(link_capacity t) ~slots:t.slots

let slot_duration_ns t =
  float_of_int t.slot_cycles *. Noc_util.Units.cycle_ns t.freq_mhz

let slots_for_bandwidth t bw =
  Noc_util.Units.slots_needed ~bw ~capacity:(link_capacity t) ~slots:t.slots

let slots_ceiling = 1024
let mesh_dim_ceiling = 64

let validate t =
  if t.freq_mhz <= 0.0 then Error "frequency must be positive"
  else if not (Float.is_finite t.freq_mhz) then Error "frequency must be finite"
  else if t.link_width_bits <= 0 then Error "link width must be positive"
  else if t.slots <= 0 then Error "slot count must be positive"
  else if t.slots > slots_ceiling then
    Error (Printf.sprintf "slot count must be at most %d" slots_ceiling)
  else if t.slot_cycles <= 0 then Error "slot cycles must be positive"
  else if t.nis_per_switch <= 0 then Error "NIs per switch must be positive"
  else if t.max_mesh_dim <= 0 then Error "mesh growth cap must be positive"
  else if t.max_mesh_dim > mesh_dim_ceiling then
    Error (Printf.sprintf "mesh growth cap must be at most %d" mesh_dim_ceiling)
  else if t.placement_hw_factor <= 0.0 then Error "placement hw factor must be positive"
  else if t.placement_spread_factor <= 0.0 then Error "placement spread factor must be positive"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf
    "@[<h>NoC config: %a, %d-bit links, %d slots x %d cycles, %d NIs/switch, %s routing@]"
    Noc_util.Units.pp_frequency t.freq_mhz t.link_width_bits t.slots t.slot_cycles
    t.nis_per_switch
    (match t.routing with Min_cost -> "min-cost" | Xy -> "XY")
