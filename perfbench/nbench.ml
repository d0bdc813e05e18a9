(* The OCaml half of the benchmark (perfbench/run.py drives it).

     nbench gen --seed S --workload W --goldens FILE --out DIR
         write the workload's seeded inputs: spec files plus DIR/pool.tsv
     nbench goldens --out FILE
         regenerate the stored payload digests for the whole spec universe
     nbench sweep --dir DIR (--seconds S | --ops N) [--first K]
                  [--trace FILE] [--metrics FILE]
         the in-process sweep workload: explore -> Pareto pick -> simulate,
         starting at the pool's K-th input
     nbench probe --dir DIR --workload W --trace FILE
         time each layer's public functions on the workload's inputs,
         with the program's tracer on, and print the per-layer numbers

   The program only ever sees spec text: the universe below renders every
   input through [Spec_parser.to_text]. *)

module DF = Noc_core.Design_flow
module SP = Noc_core.Spec_parser
module Mapping = Noc_core.Mapping
module Mapping_cache = Noc_core.Mapping_cache
module Feasibility = Noc_core.Feasibility
module Verify = Noc_core.Verify
module Codec = Noc_core.Mapping_codec
module Remap = Noc_core.Remap
module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Route = Noc_arch.Route
module UC = Noc_traffic.Use_case
module Flow = Noc_traffic.Flow
module DS = Noc_power.Design_space
module Sim = Noc_sim.Simulator
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module Certify = Noc_analysis.Certify
module Payload = Noc_serve.Payload
module Protocol = Noc_serve.Protocol
module Service = Noc_serve.Service
module Rng = Noc_util.Rng
module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let now_ns () = Int64.to_float (Noc_obs.Clock.now_ns ())
let md5 s = Digest.to_hex (Digest.string s)

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- the spec universe --------------------------------------------------- *)

(* Every input the benchmark can draw is an entry of one fixed universe:
   a class (generator + size) times a variant (the generator's seed).
   Goldens exist for the whole universe; the workload seed picks one
   variant per class, so every seed poses the same mix of problem sizes
   and the figures of two seeds are comparable. *)

let variants = 6

type cls = { cname : string; fixed : bool; build : int -> DF.spec }

let soc cname ucs = { cname; fixed = true; build = (fun _ -> DF.spec_of_use_cases ~name:cname (ucs ())) }

(* Seeded PUC/SUC lines: one parallel pair and one or two smooth pairs. *)
let with_modes ~seed (spec : DF.spec) =
  let rng = Rng.create ~seed in
  let n = List.length spec.DF.use_cases in
  let pair () =
    match Rng.sample_without_replacement rng 2 n with [ a; b ] -> (a, b) | _ -> assert false
  in
  let a, b = pair () in
  let smooth = List.sort_uniq compare (List.init (1 + Rng.int rng 2) (fun _ -> pair ())) in
  { spec with DF.parallel = [ [ a; b ] ]; smooth }

let synth ?(modes = false) ?similarity cname params n =
  let build v =
    let seed = (7919 * (v + 1)) + n in
    let ucs =
      match similarity with
      | None -> Syn.generate ~seed ~params ~use_cases:n
      | Some similarity -> Syn.generate_family ~seed ~params ~use_cases:n ~similarity
    in
    let spec = DF.spec_of_use_cases ~name:(Printf.sprintf "%s-v%d" cname v) ucs in
    if modes then with_modes ~seed spec else spec
  in
  { cname; fixed = false; build }

let classes =
  let sp = Syn.spread_params and bot = Syn.bottleneck_params in
  [
    soc "d1" SD.d1; soc "d2" SD.d2; soc "d3" SD.d3; soc "d4" SD.d4;
    synth "sp5" sp 5; synth "sp10" sp 10; synth "sp20" sp 20; synth "sp40" sp 40;
    synth "bot5" bot 5; synth "bot10" bot 10; synth "bot20" bot 20; synth "bot40" bot 40;
    synth "fam10" ~similarity:0.8 sp 10; synth "fam20" ~similarity:0.8 bot 20;
    synth "fam30" ~similarity:0.8 sp 30;
    synth "sp10ps" ~modes:true sp 10; synth "bot20ps" ~modes:true bot 20;
    synth "fam20ps" ~modes:true ~similarity:0.8 sp 20;
  ]

let find_class name = List.find (fun c -> c.cname = name) classes
let entry_key c v = if c.fixed then c.cname else Printf.sprintf "%s-v%d" c.cname v
let universe_of c = if c.fixed then [ 0 ] else List.init variants Fun.id

(* Points no mesh can map: too low a NoC frequency.  About one in eight
   oneshot ops; their correct outcome is the CLI's typed failure.  The
   certificate prunes the bottleneck ones early; the spread one it
   cannot, so it pays for the whole growth search. *)
let infeasible = [ ("d2", 50.0); ("bot10", 25.0); ("bot20", 25.0); ("sp10", 25.0) ]

(* Variants drawn per class: five of six, so two seeds' pools differ in
   one variant per class and cost nearly the same. *)
let per_class = 5

(* Which classes each workload draws. *)
let workloads =
  [
    ("oneshot", List.map (fun c -> c.cname) classes);
    (* D1-D4 and the synthetic classes whose explores cost about the
       same in every variant: one slow explore (sp10ps has a 0.7 s one)
       holds the single-threaded daemon and decides the tail. *)
    ("serve", [ "d1"; "d2"; "d3"; "d4"; "sp5"; "sp10"; "bot5"; "bot10"; "fam10" ]);
    (* Small specs, so an explore plus simulation stays near 100 ms and
       a run holds well over a hundred ops. *)
    ("sweep", [ "d1"; "d3"; "sp5"; "sp10"; "bot5"; "bot10"; "fam10"; "sp10ps" ]);
  ]

let sweep_classes = List.assoc "sweep" workloads

let sweep_axes =
  { DS.frequencies = [ 25.0; 200.0; 500.0 ]; slot_counts = [ 16; 32 ]; topologies = [ Mesh.Mesh ] }

(* The designer's growth cap for the sweep: 6x6 is ample for these
   specs, and it bounds what an unprunable infeasible point costs. *)
let sweep_config = { Config.default with Config.max_mesh_dim = 6 }

(* The sweep's worker domains: this machine's nproc, never more. *)
let jobs = 2

let sweep_horizon = 1600

(* An entry's simulator source mix: on/off period (a divisor of the
   horizon, so every burst drains before the end), duty cycle, and which
   half of the GT connections is bursty.  A fixed function of the entry,
   so [goldens] checks exactly the mixes the workload runs. *)
let sim_mix key =
  let h = Hashtbl.hash ("sim", key) in
  (List.nth [ 40; 50; 80; 100 ] (h mod 4), 0.3 +. (0.4 *. float_of_int (h / 4 mod 100) /. 100.0), h / 400 mod 2)

(* The two overlapping explore grids of the served mix. *)
let grids = [ ("A", [ 300.0; 500.0; 700.0 ], [ 16; 32 ]); ("B", [ 500.0; 700.0; 900.0 ], [ 16; 32 ]) ]

(* --- remap deltas ---------------------------------------------------------- *)

let delta_kinds = [ "retune"; "retire"; "add" ]

let scale f (u : UC.t) =
  UC.create ~id:u.UC.id ~name:u.UC.name ~cores:u.UC.cores
    (List.map (fun fl -> { fl with Flow.bandwidth = fl.Flow.bandwidth *. f }) u.UC.flows)

(* A single-use-case delta of [spec].  The touched use-case is a fixed
   function of the entry, so every delta of the universe has a golden. *)
let delta ~key kind (spec : DF.spec) =
  let ucs = spec.DF.use_cases in
  let n = List.length ucs in
  let k = (Hashtbl.hash (key, kind) land 0xffff) mod n in
  let name = spec.DF.name ^ "-" ^ kind in
  match kind with
  | "retune" ->
    { spec with DF.name; use_cases = List.map (fun u -> if u.UC.id = k then scale 0.8 u else u) ucs }
  | "retire" ->
    let renum i = if i > k then i - 1 else i in
    let use_cases =
      List.filter (fun u -> u.UC.id <> k) ucs |> List.mapi (fun i u -> UC.rename u ~id:i ~name:u.UC.name)
    in
    let parallel =
      List.filter_map
        (fun set -> if List.mem k set then None else Some (List.map renum set))
        spec.DF.parallel
    in
    let smooth =
      List.filter_map
        (fun (a, b) -> if a = k || b = k then None else Some (renum a, renum b))
        spec.DF.smooth
    in
    { DF.name; use_cases; parallel; smooth }
  | "add" ->
    let src = List.nth ucs k in
    let copy = UC.rename (scale 0.9 src) ~id:n ~name:(src.UC.name ^ "-copy") in
    { spec with DF.name; use_cases = ucs @ [ copy ] }
  | other -> invalid_arg ("unknown delta kind " ^ other)

(* --- payload ops (goldens and the probe share them) -------------------------- *)

let config_at ?(freq = Protocol.default_config.Protocol.freq_mhz) () =
  { Protocol.default_config with Protocol.freq_mhz = freq }

let op_of ~kind ~key ?grid ?delta_to text =
  let config = config_at () in
  match kind with
  | "map" -> Protocol.Map { name = key; spec = text; config }
  | "lint" -> Protocol.Lint { name = key; spec = text; config; deep = false }
  | "certify" -> Protocol.Certify { name = key; spec = text; config }
  | "explore" ->
    let _, fs, ss = List.find (fun (g, _, _) -> Some g = grid) grids in
    Protocol.Explore
      { name = key; spec = text; config; frequencies = Some fs; slot_counts = Some ss; torus = false }
  | "remap" ->
    let to_spec = Option.get delta_to in
    Protocol.Remap { from_name = key; from_spec = text; to_name = key ^ "-to"; to_spec; config }
  | other -> invalid_arg ("unknown op " ^ other)

let run_op op =
  match Service.prepare op with
  | Error (_, msg) -> Error msg
  | Ok job -> Service.execute job

let bench_span name f = Tracer.with_span ~cat:"bench" ("bench:" ^ name) f

(* --- the sweep op ----------------------------------------------------------- *)

type sweep_input = { skey : string; sspec : DF.spec; period : int; duty : float; phase : int }

let least_power points =
  List.fold_left
    (fun best (p : DS.point) ->
      match (best, p.DS.power_mw) with
      | None, Some _ -> Some p
      | Some (b : DS.point), Some pw when pw < Option.get b.DS.power_mw -> Some p
      | _ -> best)
    None (DS.pareto points)

(* The analytic latency bound assumes arrivals at the contracted rate;
   an on/off source exceeds that rate while ON, so bursty connections
   are held to their throughput contract only.  Everything else is
   [Simulator.within_contract] as is, collisions included. *)
let contract_ok ~bursty (res : Sim.result) =
  let conns =
    List.map
      (fun (c : Sim.conn_stats) ->
        if List.mem c.Sim.flow_id bursty then { c with Sim.bound_ns = infinity } else c)
      res.Sim.conns
  in
  res.Sim.collisions = 0 && Sim.within_contract { res with Sim.conns }

(* One sweep op: explore the grid (warm starts, cache on), take the
   least-power Pareto point, design it, and simulate every use-case
   configuration with half the GT connections bursty.  Returns the
   explore payload digest and whether every simulation kept its
   contract collision-free. *)
let sweep_op (s : sweep_input) =
  Mapping_cache.clear ();
  let all, _, groups = DF.expand s.sspec in
  let config = sweep_config in
  let points =
    bench_span "design_space.explore" (fun () -> DS.explore ~axes:sweep_axes ~jobs ~config ~groups all)
  in
  match least_power points with
  | None -> Error "no feasible point"
  | Some p -> (
    let config = { config with Config.freq_mhz = p.DS.freq_mhz; slots = p.DS.slots } in
    match bench_span "design_flow.run" (fun () -> DF.run ~config s.sspec) with
    | Error e -> Error e
    | Ok d ->
      let ok = ref true in
      List.iter
        (fun (u : UC.t) ->
          let routes = Mapping.routes_of_use_case d.DF.mapping u.UC.id in
          if routes <> [] then begin
            let sources =
              List.filter_map
                (fun (r : Route.t) ->
                  if r.Route.service = Route.Gt && (r.Route.flow_id + s.phase) mod 2 = 0 then
                    Some (r.Route.flow_id, Sim.On_off { period_slots = s.period; duty = s.duty })
                  else None)
                routes
            in
            let res =
              bench_span "simulator.simulate" (fun () ->
                  Sim.simulate_with ~core:`Event ~sources ~config ~routes
                    ~duration_slots:sweep_horizon)
            in
            if not (contract_ok ~bursty:(List.map fst sources) res) then ok := false
          end)
        d.DF.all_use_cases;
      Ok (md5 (Payload.points points), !ok))

(* --- gen ---------------------------------------------------------------------- *)

let read_goldens file =
  let tbl = Hashtbl.create 1024 in
  read_file file
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
         match String.split_on_char '\t' l with [ k; v ] -> Hashtbl.replace tbl k v | _ -> ());
  tbl

(* pool.tsv rows, tab-separated:
     oneshot KEY FILE FREQ EXPECT        EXPECT = ok | fail
     serve   KEY FILE
     remap   KEY KIND FROM_FILE TO_FILE
     sweep   KEY FILE PERIOD DUTY PHASE
     grid    NAME FREQS SLOTS *)
let gen ~seed ~workload ~goldens ~out =
  let rng = Rng.create ~seed in
  let dir = Filename.concat out "specs" in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let rows = Buffer.create 4096 in
  let row fields = Buffer.add_string rows (String.concat "\t" fields ^ "\n") in
  let put key spec =
    let file = Filename.concat dir (key ^ ".spec") in
    write_file file (SP.to_text spec);
    file
  in
  (* [k] distinct variants of every class, among those [eligible]. *)
  let pick ?(eligible = fun _ -> true) k cname =
    let c = find_class cname in
    let vs = Array.of_list (List.filter (fun v -> eligible (entry_key c v)) (universe_of c)) in
    Rng.shuffle rng vs;
    Array.to_list (Array.sub vs 0 (min k (Array.length vs)))
    |> List.map (fun v -> (entry_key c v, c.build v))
  in
  let pool = List.concat_map (pick per_class) (List.assoc workload workloads) in
  (match workload with
  | "oneshot" ->
    List.iter (fun (key, spec) -> row [ "oneshot"; key; put key spec; "500"; "ok" ]) pool;
    List.iter
      (fun (cname, freq) ->
        List.iter
          (fun (key, spec) ->
            row [ "oneshot"; Printf.sprintf "%s@%g" key freq; put key spec;
                  Printf.sprintf "%g" freq; "fail" ])
          (pick 3 cname))
      infeasible
  | "serve" -> List.iter (fun (key, spec) -> row [ "serve"; key; put key spec ]) pool
  | _ ->
    (* Only entries with a sweep golden: the others break the simulation
       contract on the seed code (see [goldens]). *)
    let swept = read_goldens goldens in
    let eligible key = Hashtbl.mem swept ("sweep|" ^ key) in
    (* Round-robin over the classes, so every block of consecutive ops
       holds the classes in the same shares. *)
    let picks = List.map (pick ~eligible per_class) sweep_classes in
    List.init per_class (fun r -> List.filter_map (fun l -> List.nth_opt l r) picks)
    |> List.concat
    |> List.iter (fun (key, spec) ->
           let period, duty, phase = sim_mix key in
           row [ "sweep"; key; put key spec; string_of_int period; Printf.sprintf "%.4f" duty;
                 string_of_int phase ]));
  List.iter
    (fun (key, spec) ->
      let kind = List.nth delta_kinds (Rng.int rng 3) in
      let from_file = put key spec in
      let to_file = put (key ^ "-" ^ kind) (delta ~key kind spec) in
      row [ "remap"; key; kind; from_file; to_file ])
    pool;
  List.iter
    (fun (g, fs, ss) ->
      row
        [ "grid"; g; String.concat "," (List.map (Printf.sprintf "%g") fs);
          String.concat "," (List.map string_of_int ss) ])
    grids;
  write_file (Filename.concat out "pool.tsv") (Buffer.contents rows)

let read_pool dir =
  read_file (Filename.concat dir "pool.tsv")
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (String.split_on_char '\t')

let parse_spec file =
  match SP.parse_file file with
  | Ok spec -> spec
  | Error e -> failwith (Format.asprintf "%s: %a" file SP.pp_error e)

(* --- goldens ------------------------------------------------------------------- *)

let goldens ~out =
  let lines = ref [] in
  let add k v = lines := Printf.sprintf "%s\t%s" k v :: !lines in
  let timed label f =
    let t0 = now_ns () in
    let r = f () in
    Printf.eprintf "%-28s %8.1f ms\n%!" label ((now_ns () -. t0) /. 1e6);
    r
  in
  let payload label op =
    match timed label (fun () -> run_op op) with
    | Ok p -> add label (md5 p)
    | Error e -> failwith (label ^ ": " ^ e)
  in
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          let key = entry_key c v in
          let spec = c.build v in
          let text = SP.to_text spec in
          (* The universe must round-trip through the text format. *)
          (match SP.parse ~name:key text with
          | Ok s when SP.to_text s = text -> ()
          | _ -> failwith (key ^ ": spec does not round-trip"));
          List.iter
            (fun kind -> payload (kind ^ "|" ^ key) (op_of ~kind ~key text))
            [ "map"; "lint"; "certify" ];
          List.iter
            (fun (g, _, _) -> payload ("explore|" ^ key ^ "|" ^ g) (op_of ~kind:"explore" ~key ~grid:g text))
            grids;
          List.iter
            (fun kind ->
              let delta_to = SP.to_text (delta ~key kind spec) in
              payload ("remap|" ^ key ^ "|" ^ kind) (op_of ~kind:"remap" ~key ~delta_to text))
            delta_kinds;
          if List.mem c.cname sweep_classes then begin
            let period, duty, phase = sim_mix key in
            let input = { skey = key; sspec = spec; period; duty; phase } in
            match timed ("sweep|" ^ key) (fun () -> sweep_op input) with
            | Ok (digest, true) -> add ("sweep|" ^ key) digest
            | Ok (_, false) ->
              (* Left out of the sweep universe: the seed's simulator
                 already disagrees with the analytic bound there. *)
              Printf.eprintf "sweep|%s excluded: simulation outside its contract\n%!" key
            | Error e -> failwith (key ^ ": " ^ e)
          end)
        (universe_of c))
    classes;
  List.iter
    (fun (cname, freq) ->
      let c = find_class cname in
      List.iter
        (fun v ->
          let key = entry_key c v in
          let op =
            Protocol.Map { name = key; spec = SP.to_text (c.build v); config = config_at ~freq () }
          in
          match timed ("infeasible|" ^ key) (fun () -> run_op op) with
          | Error _ -> ()
          | Ok _ -> failwith (key ^ " maps at the infeasible frequency"))
        (universe_of c))
    infeasible;
  write_file out (String.concat "\n" (List.sort compare !lines) ^ "\n")

(* --- sweep workload --------------------------------------------------------------- *)

let vm_hwm_kb () =
  try
    read_file "/proc/self/status"
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d" Option.some
           | _ -> None)
    |> Option.value ~default:0
  with _ -> 0

let sweep_inputs dir =
  read_pool dir
  |> List.filter_map (function
       | [ "sweep"; key; file; period; duty; phase ] ->
         Some
           {
             skey = key;
             sspec = parse_spec file;
             period = int_of_string period;
             duty = float_of_string duty;
             phase = int_of_string phase;
           }
       | _ -> None)
  |> Array.of_list

let sweep ~dir ~seconds ~ops ~first ~trace ~metrics =
  let inputs = sweep_inputs dir in
  (* Warm the pool's worker domains before timing. *)
  ignore (Noc_util.Domain_pool.map ~jobs Fun.id (List.init jobs Fun.id));
  if trace <> None then Tracer.set_enabled true;
  Metrics.reset ();
  let deadline = now_ns () +. (seconds *. 1e9) in
  let results = ref [] in
  let i = ref 0 in
  let t_start = now_ns () in
  while (match ops with Some n -> !i < n | None -> now_ns () < deadline) do
    let s = inputs.((first + !i) mod Array.length inputs) in
    let t0 = now_ns () in
    let r =
      try bench_span "sweep.op" (fun () -> sweep_op s)
      with e -> Error (Printexc.to_string e)
    in
    let ms = (now_ns () -. t0) /. 1e6 in
    results := (s.skey, r, ms) :: !results;
    incr i
  done;
  let wall = (now_ns () -. t_start) /. 1e9 in
  Option.iter (fun f -> write_file f (Tracer.export_chrome ())) trace;
  Option.iter (fun f -> write_file f (Metrics.render_json (Metrics.snapshot ()))) metrics;
  let op_json (key, r, ms) =
    match r with
    | Ok (digest, sim_ok) ->
      Printf.sprintf "[\"%s\",\"%s\",%b,%.6f]" key digest sim_ok ms
    | Error e -> Printf.sprintf "[\"%s\",%S,false,%.6f]" key ("error: " ^ e) ms
  in
  Printf.printf "{\"wall_s\":%.6f,\"rss_kb\":%d,\"ops\":[%s]}\n" wall (vm_hwm_kb ())
    (String.concat "," (List.rev_map op_json !results))

(* --- probe ----------------------------------------------------------------------- *)

(* Per-layer timing from outside: each public call is wrapped in a
   benchmark span (the program's own spans nest inside it) and its
   counters are read before and after.  Every figure is a mean per
   call, so it does not depend on how many inputs the workload has. *)
let probe ~dir ~workload ~trace =
  let rows = read_pool dir in
  let specs =
    List.filter_map
      (function
        | ("oneshot" :: key :: file :: _ :: "ok" :: _ | "serve" :: key :: file :: _
          | "sweep" :: key :: file :: _) -> Some (key, file)
        | _ -> None)
      rows
  in
  let remaps =
    List.filter_map
      (function [ "remap"; key; kind; f; t ] -> Some (key, kind, f, t) | _ -> None)
      rows
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (* At most [n] entries spread evenly over the pool's class order. *)
  let spread n l =
    let stride = (List.length l + n - 1) / n in
    List.filteri (fun i _ -> i mod stride = 0) l
  in
  let config = Config.default in
  let results : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let set k v = Hashtbl.replace results k v in
  let sums : (string, float * int) Hashtbl.t = Hashtbl.create 64 in
  let acc k v =
    let s, n = Option.value (Hashtbl.find_opt sums k) ~default:(0.0, 0) in
    Hashtbl.replace sums k (s +. v, n + 1)
  in
  let timed name f =
    let t0 = now_ns () in
    let r = bench_span name f in
    acc (name ^ "_ms") ((now_ns () -. t0) /. 1e6);
    r
  in
  let counter n = Metrics.counter_value (Metrics.counter n) in
  let delta_of names f =
    let before = List.map counter names in
    let r = f () in
    (r, List.map2 (fun n b -> counter n - b) names before)
  in
  Mapping_cache.set_enabled true;
  Tracer.set_enabled true;
  (* Service first, on a fresh cache: prepare + execute of the first
     specs' ops, in the order run.py replays them against a fresh
     daemon, so served minus executed time is the serving overhead.
     One domain, as the daemon runs, so lost parallelism does not show
     as overhead. *)
  let service_ops =
    take 4 specs
    |> List.concat_map (fun (key, file) ->
           let text = read_file file in
           let remap =
             List.find_map
               (fun (k, _, _, t) -> if k = key then Some (read_file t) else None)
               remaps
           in
           [ ("map", op_of ~kind:"map" ~key text); ("certify", op_of ~kind:"certify" ~key text);
             ("lint", op_of ~kind:"lint" ~key text);
             ("explore", op_of ~kind:"explore" ~key ~grid:"A" text) ]
           @ match remap with
             | Some delta_to -> [ ("remap", op_of ~kind:"remap" ~key ~delta_to text) ]
             | None -> [])
  in
  Mapping_cache.clear ();
  let default_jobs = Noc_util.Domain_pool.default_jobs () in
  Noc_util.Domain_pool.set_default_jobs 1;
  let seq =
    List.map
      (fun (kind, op) ->
        let t0 = now_ns () in
        let job = bench_span "service.prepare" (fun () -> Service.prepare op) in
        let t1 = now_ns () in
        acc "service.prepare_ms" ((t1 -. t0) /. 1e6);
        match job with
        | Error (_, msg) -> failwith ("prepare: " ^ msg)
        | Ok job ->
          (match bench_span ("service.execute." ^ kind) (fun () -> Service.execute job) with
          | Ok _ -> ()
          | Error msg -> failwith ("execute: " ^ msg));
          let t2 = now_ns () in
          acc "service.execute_ms" ((t2 -. t1) /. 1e6);
          acc ("service.execute_ms." ^ kind) ((t2 -. t1) /. 1e6);
          (t2 -. t0) /. 1e6)
      service_ops
  in
  Noc_util.Domain_pool.set_default_jobs default_jobs;
  Mapping_cache.clear ();
  let designs = ref [] in
  let attempts = ref 0 and designs_ok = ref 0 in
  List.iter
    (fun (key, file) ->
      let text = read_file file in
      let spec =
        match timed "spec_parser.parse" (fun () -> SP.parse ~name:key text) with
        | Ok s -> s
        | Error e -> failwith (Format.asprintf "%s: %a" key SP.pp_error e)
      in
      let all, compounds, groups = timed "design_flow.expand" (fun () -> DF.expand spec) in
      timed "feasibility.certify" (fun () ->
          let cert = Feasibility.certify ~config ~groups all in
          List.iter
            (fun (w, h) -> ignore (Feasibility.explain cert ~width:w ~height:h))
            (Mesh.growth_sequence ~max_dim:config.Config.max_mesh_dim));
      let r, d =
        delta_of
          [ "map.pruned"; "map.attempts"; "map.attempt_failures"; "route.shared"; "route.detours";
            "route.failures" ]
          (fun () ->
            timed "mapping.map_design" (fun () ->
                Mapping.map_design ~config ~parallel:false ~groups all))
      in
      List.iter2 acc
        [ "feasibility.pruned"; "mapping.attempts"; "mapping.attempt_failures";
          "path_select.shared"; "path_select.detours"; "path_select.failures" ]
        (List.map float_of_int d);
      attempts := !attempts + List.nth d 1;
      match r with
      | Error _ -> ()
      | Ok m ->
        incr designs_ok;
        let design =
          timed "design_flow.assemble" (fun () ->
              DF.assemble ~spec ~all_use_cases:all ~compounds ~groups m)
        in
        let report = timed "verify" (fun () -> Verify.verify m all) in
        acc "verify.checks" (float_of_int report.Verify.checks);
        let cert = timed "certify" (fun () -> Certify.certify ~name:spec.DF.name m all) in
        if not (Certify.clean cert) then failwith (key ^ ": certificate not clean");
        let payload = timed "payload.design" (fun () -> Payload.design design) in
        acc "payload.design_kb" (float_of_int (String.length payload) /. 1024.0);
        let text = Option.get (timed "codec.encode" (fun () -> Codec.encode m)) in
        ignore (timed "codec.decode" (fun () -> Codec.decode text));
        let mb = float_of_int (String.length payload) /. 1048576.0 in
        let resp = Protocol.Result { id = 1; payload; coalesced = false } in
        let t0 = now_ns () in
        let line = bench_span "protocol.encode" (fun () -> Protocol.encode_response resp) in
        let t1 = now_ns () in
        ignore (bench_span "protocol.decode" (fun () -> Protocol.decode_response line));
        let t2 = now_ns () in
        acc "protocol.encode_ms_per_mb" ((t1 -. t0) /. 1e6 /. mb);
        acc "protocol.decode_ms_per_mb" ((t2 -. t1) /. 1e6 /. mb);
        designs := design :: !designs)
    (spread 24 specs);
  set "mapping.attempt_yield"
    (if !attempts = 0 then 0.0 else float_of_int !designs_ok /. float_of_int !attempts);
  let designs = List.rev !designs in
  (* Design space, on the workload's own grid. *)
  let ex_config = if workload = "sweep" then sweep_config else config in
  let axes =
    if workload = "sweep" then sweep_axes
    else
      let _, fs, ss = List.hd grids in
      { DS.frequencies = fs; slot_counts = ss; topologies = [ Mesh.Mesh ] }
  in
  List.iter
    (fun (d : DF.t) ->
      Mapping_cache.clear ();
      let _, c =
        delta_of [ "explore.points"; "explore.warm_hits"; "explore.infeasible" ] (fun () ->
            timed "design_space.explore" (fun () ->
                DS.explore ~axes ~config:ex_config ~groups:d.DF.groups d.DF.all_use_cases))
      in
      List.iter2 acc
        [ "design_space.points"; "design_space.warm_hits"; "design_space.infeasible" ]
        (List.map float_of_int c))
    (take 3 designs);
  set "domain_pool.utilization" (Metrics.gauge_value (Metrics.gauge "pool.utilization"));
  (* Remap: the old design first (cache on, as the CLI runs it). *)
  List.iter
    (fun (_, _, from_file, to_file) ->
      let old_spec = parse_spec from_file and new_spec = parse_spec to_file in
      match DF.run ~config old_spec with
      | Error e -> failwith e
      | Ok old ->
        let r, c =
          delta_of [ "remap.delta"; "remap.reused" ] (fun () ->
              timed "remap" (fun () -> Remap.remap ~config ~old new_spec))
        in
        if Result.is_error r then failwith "remap failed";
        List.iter2 acc [ "remap.delta"; "remap.reused" ] (List.map float_of_int c))
    (take 4 remaps);
  (* Simulator: dense (fluid) and idle-skipping (bursty) paths. *)
  let horizon = 4000 in
  List.iter
    (fun (d : DF.t) ->
      List.iter
        (fun (u : UC.t) ->
          let routes = Mapping.routes_of_use_case d.DF.mapping u.UC.id in
          if routes <> [] then begin
            let bursty =
              List.filter_map
                (fun (r : Route.t) ->
                  if r.Route.service = Route.Gt then
                    Some (r.Route.flow_id, Sim.On_off { period_slots = 256; duty = 0.1 })
                  else None)
                routes
            in
            List.iter
              (fun (label, sources) ->
                let t0 = now_ns () in
                let (res : Sim.result), c =
                  delta_of [ "sim.slots"; "sim.skipped_slots"; "sim.events" ] (fun () ->
                      bench_span ("simulator." ^ label) (fun () ->
                          Sim.simulate_with ~core:`Event ~sources ~config ~routes
                            ~duration_slots:horizon))
                in
                if res.Sim.collisions <> 0 then failwith "simulation collided";
                acc ("simulator." ^ label ^ "_ns_per_slot")
                  ((now_ns () -. t0) /. float_of_int horizon);
                (match c with
                | [ slots; skipped; events ] ->
                  acc "simulator.skip_ratio" (float_of_int skipped /. float_of_int (max 1 slots));
                  acc "simulator.events" (float_of_int events)
                | _ -> assert false))
              [ ("fluid", []); ("bursty", bursty) ]
          end)
        d.DF.all_use_cases)
    (take 3 designs);
  Tracer.set_enabled false;
  write_file trace (Tracer.export_chrome ());
  Hashtbl.iter (fun k (s, n) -> set k (s /. float_of_int n)) sums;
  let fields =
    Hashtbl.fold (fun k v l -> Printf.sprintf "\"%s\":%.9g" k v :: l) results []
    |> List.sort compare
  in
  Printf.printf "{%s,\"service_seq_ms\":[%s]}\n" (String.concat "," fields)
    (String.concat "," (List.map (Printf.sprintf "%.6f") seq))

(* --- command line ---------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | bad :: _ -> failwith ("unexpected argument " ^ bad)
  in
  match args with
  | cmd :: rest -> (
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
    let opt k = List.assoc_opt k o in
    match cmd with
    | "gen" ->
      gen ~seed:(int_of_string (get "seed")) ~workload:(get "workload") ~goldens:(get "goldens")
        ~out:(get "out")
    | "goldens" -> goldens ~out:(get "out")
    | "sweep" ->
      sweep ~dir:(get "dir")
        ~seconds:(Option.fold ~none:0.0 ~some:float_of_string (opt "seconds"))
        ~ops:(Option.map int_of_string (opt "ops"))
        ~first:(Option.fold ~none:0 ~some:int_of_string (opt "first"))
        ~trace:(opt "trace") ~metrics:(opt "metrics")
    | "probe" -> probe ~dir:(get "dir") ~workload:(get "workload") ~trace:(get "trace")
    | other -> failwith ("unknown command " ^ other))
  | [] -> failwith "usage: nbench (gen|goldens|sweep|probe) --key value ..."
