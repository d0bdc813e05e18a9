module Use_case = Noc_traffic.Use_case
module Flow = Noc_traffic.Flow

let synthetic use_cases =
  match use_cases with
  | [] -> invalid_arg "Worst_case.synthetic: no use-cases"
  | first :: _ ->
    let cores = first.Use_case.cores in
    List.iter
      (fun u ->
        if u.Use_case.cores <> cores then
          invalid_arg "Worst_case.synthetic: use-cases disagree on core count")
      use_cases;
    let tbl : (int * int, Flow.t) Hashtbl.t = Hashtbl.create 128 in
    List.iter
      (fun u ->
        List.iter
          (fun f ->
            let key = Flow.pair f in
            match Hashtbl.find_opt tbl key with
            | None -> Hashtbl.add tbl key f
            | Some g ->
              Hashtbl.replace tbl key
                (Flow.v ~src:f.Flow.src ~dst:f.Flow.dst
                   ~latency_ns:(Float.min f.Flow.latency_ns g.Flow.latency_ns)
                   (Float.max f.Flow.bandwidth g.Flow.bandwidth)))
          u.Use_case.flows)
      use_cases;
    let flows = Hashtbl.fold (fun _ f acc -> f :: acc) tbl [] in
    let flows = List.sort (fun a b -> compare (Flow.pair a) (Flow.pair b)) flows in
    Use_case.create ~id:0 ~name:"worst-case" ~cores flows

let map_design ?config use_cases =
  let wc = synthetic use_cases in
  let cache = Mapping_cache.design_cache ?config ~groups:[ [ 0 ] ] [ wc ] in
  Mapping.map_design ?config ?cache ~groups:[ [ 0 ] ] [ wc ]

let overspecification use_cases =
  let wc = synthetic use_cases in
  let peak =
    List.fold_left (fun acc u -> Float.max acc (Use_case.total_bandwidth u)) 0.0 use_cases
  in
  if peak = 0.0 then 1.0 else Use_case.total_bandwidth wc /. peak
