type bandwidth = float
type frequency = float
type latency = float
type area = float

let link_capacity ~freq_mhz ~width_bits =
  (* MHz * bytes = 1e6 bytes/s = MB/s (decimal MB, as the paper uses). *)
  freq_mhz *. (float_of_int width_bits /. 8.0)

let cycle_ns freq_mhz = 1000.0 /. freq_mhz

let mbps_per_slot ~capacity ~slots = capacity /. float_of_int slots

let slots_needed ~bw ~capacity ~slots =
  if bw <= 0.0 then 0
  else
    let n = ceil (bw /. mbps_per_slot ~capacity ~slots) in
    (* Saturate: [int_of_float] is unspecified beyond [max_int] (and on
       NaN), and such a demand is unmeetable by any slot table anyway. *)
    if n < float_of_int max_int then int_of_float n else max_int

let pp_bandwidth ppf bw = Format.fprintf ppf "%.1f MB/s" bw
let pp_frequency ppf f = Format.fprintf ppf "%.0f MHz" f
let pp_latency ppf l = Format.fprintf ppf "%.1f ns" l
let pp_area ppf a = Format.fprintf ppf "%.3f mm2" a
