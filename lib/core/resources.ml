module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Slot_table = Noc_arch.Slot_table

type t = {
  use_case : int;
  config : Config.t;
  mesh : Mesh.t;
  tables : Slot_table.t array;           (* per link id *)
  mutable ni_budget : float array;       (* per core, remaining NI bandwidth *)
}

let create ~config ~mesh ~use_case =
  let links = Mesh.link_count mesh in
  {
    use_case;
    config;
    mesh;
    tables = Array.init links (fun _ -> Slot_table.create ~slots:config.Config.slots);
    (* The core count is unknown here, so the NI budget array starts
       empty and [ni_reserve] grows it on demand. *)
    ni_budget = [||];
  }

let copy t =
  { t with tables = Array.map Slot_table.copy t.tables; ni_budget = Array.copy t.ni_budget }

let use_case t = t.use_case
let mesh t = t.mesh
let config t = t.config

let table t l = t.tables.(l)

let path_tables t links = Array.of_list (List.map (table t) links)

let free_slots t l = Slot_table.free_count t.tables.(l)

let residual_bandwidth t l =
  float_of_int (free_slots t l) *. Config.slot_bandwidth t.config

let reserved_bandwidth t l =
  float_of_int (Slot_table.used_count t.tables.(l)) *. Config.slot_bandwidth t.config

let link_usable t ~link ~needed_slots = free_slots t link >= needed_slots

let utilization t l = Slot_table.utilization t.tables.(l)

let worst_utilization_into t ~needed_slots worst =
  for l = 0 to Array.length t.tables - 1 do
    let tab = t.tables.(l) in
    if Slot_table.free_count tab < needed_slots then worst.(l) <- infinity
    else begin
      let u = Slot_table.utilization tab in
      if u > worst.(l) then worst.(l) <- u
    end
  done

let mean_utilization t =
  let n = Array.length t.tables in
  if n = 0 then 0.0
  else Array.fold_left (fun acc tab -> acc +. Slot_table.utilization tab) 0.0 t.tables /. float_of_int n

let max_utilization t =
  Array.fold_left (fun acc tab -> Float.max acc (Slot_table.utilization tab)) 0.0 t.tables

let ni_available t ~core =
  if not t.config.Config.constrain_ni_links then infinity
  else if Array.length t.ni_budget > core then t.ni_budget.(core)
  else Config.link_capacity t.config

let ni_reserve t ~core ~bw =
  if not t.config.Config.constrain_ni_links then Ok ()
  else begin
    if Array.length t.ni_budget <= core then begin
      (* Grow on demand; fresh entries start with a full link budget. *)
      let fresh = Array.make (core + 1) (Config.link_capacity t.config) in
      Array.blit t.ni_budget 0 fresh 0 (Array.length t.ni_budget);
      t.ni_budget <- fresh
    end;
    let budget = t.ni_budget in
    if budget.(core) >= bw then begin
      budget.(core) <- budget.(core) -. bw;
      Ok ()
    end
    else
      Error
        (Printf.sprintf "NI link of core %d exhausted (%.1f MB/s left, %.1f needed)" core
           budget.(core) bw)
  end

let reservations t =
  let acc = ref [] in
  for l = Array.length t.tables - 1 downto 0 do
    let tab = t.tables.(l) in
    for s = Slot_table.slots tab - 1 downto 0 do
      match Slot_table.owner tab s with
      | Some owner -> acc := (l, s, owner) :: !acc
      | None -> ()
    done
  done;
  !acc

let ni_budget_snapshot t = Array.copy t.ni_budget

let restore ~config ~mesh ~use_case ~ni_budget ~reservations =
  let t = create ~config ~mesh ~use_case in
  let links = Array.length t.tables in
  List.iter
    (fun (l, s, owner) ->
      if l < 0 || l >= links then invalid_arg "Resources.restore: link out of range";
      if s < 0 || s >= config.Config.slots then invalid_arg "Resources.restore: slot out of range";
      Slot_table.reserve t.tables.(l) ~slot:s ~owner)
    reservations;
  t.ni_budget <- Array.copy ni_budget;
  t

let pp ppf t =
  Format.fprintf ppf "uc %d on %a: mean util %.2f, max util %.2f" t.use_case Mesh.pp t.mesh
    (mean_utilization t) (max_utilization t)
