(* The straightforward quadratic list intersection of the starting
   slots a group can share along a path, which
   [Noc_core.Path_select.common_starts] (rotate-and-AND of bitmasks)
   replaced; verbatim. *)

module Config = Noc_arch.Noc_config
module Tdma = Noc_arch.Tdma
module Resources = Noc_core.Resources

let common_starts members links =
  match members with
  | [] -> invalid_arg "Path_select: no members"
  | first :: rest ->
    let starts state =
      let tables = Resources.path_tables state links in
      let slots = (Resources.config state).Config.slots in
      let acc = ref [] in
      for start = slots - 1 downto 0 do
        if Tdma.start_is_free ~tables ~start then acc := start :: !acc
      done;
      !acc
    in
    List.fold_left
      (fun acc state ->
        let s = starts state in
        List.filter (fun x -> List.mem x s) acc)
      (starts first) rest
