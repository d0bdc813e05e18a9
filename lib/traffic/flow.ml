type service =
  | Guaranteed
  | Best_effort

type t = {
  src : int;
  dst : int;
  bandwidth : Noc_util.Units.bandwidth;
  latency_ns : Noc_util.Units.latency;
  service : service;
}

let v ?(latency_ns = infinity) ?(service = Guaranteed) ~src ~dst bandwidth =
  { src; dst; bandwidth; latency_ns; service }

let is_guaranteed t = t.service = Guaranteed

let pair t = (t.src, t.dst)

let validate ~cores t =
  if t.src < 0 || t.src >= cores then Error (Printf.sprintf "flow source %d out of range" t.src)
  else if t.dst < 0 || t.dst >= cores then
    Error (Printf.sprintf "flow destination %d out of range" t.dst)
  else if t.src = t.dst then Error "flow endpoints must differ"
  else if t.bandwidth <= 0.0 then Error "flow bandwidth must be positive"
  else if t.latency_ns <= 0.0 then Error "flow latency constraint must be positive"
  else if t.service = Best_effort && t.latency_ns <> infinity then
    Error "a best-effort flow cannot carry a latency constraint"
  else Ok ()

let service_rank = function Guaranteed -> 0 | Best_effort -> 1

let compare_bandwidth_desc a b =
  match Int.compare (service_rank a.service) (service_rank b.service) with
  | 0 -> (
    match Float.compare b.bandwidth a.bandwidth with
    | 0 -> ( match Int.compare a.src b.src with 0 -> Int.compare a.dst b.dst | c -> c)
    | c -> c)
  | c -> c

let pp ppf t =
  Format.fprintf ppf "%d->%d %a%s" t.src t.dst Noc_util.Units.pp_bandwidth t.bandwidth
    (match t.service with Guaranteed -> "" | Best_effort -> " [BE]");
  if t.latency_ns <> infinity then Format.fprintf ppf " (lat<=%a)" Noc_util.Units.pp_latency t.latency_ns
