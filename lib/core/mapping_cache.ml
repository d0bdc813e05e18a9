module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case
module Result_cache = Noc_util.Result_cache

(* --- result <-> payload -------------------------------------------------- *)

(* The disk boundary: successes go through {!Mapping_codec}, failures
   as their message.  Express meshes have no encoding, so their results
   stay in memory. *)
let encode_result = function
  | Ok m -> Option.map (fun payload -> "ok\n" ^ payload) (Mapping_codec.encode m)
  | Error msg -> Some ("err\n" ^ msg)

let decode_result text =
  let after prefix = String.sub text (String.length prefix) (String.length text - String.length prefix) in
  if String.starts_with ~prefix:"ok\n" text then
    match Mapping_codec.decode (after "ok\n") with
    | Ok m -> Some (Ok m)
    | Error _ -> None
  else if String.starts_with ~prefix:"err\n" text then Some (Error (after "err\n"))
  else None

(* --- the process-wide store --------------------------------------------- *)

(* Created on first use, but not through [lazy]: a parallel sweep's
   first lookups arrive from several pool worker domains at once, and
   concurrently forcing one lazy raises [CamlinternalLazy.Undefined].
   Double-checked locking creates the store exactly once instead. *)
let store_cell : (Mapping.t, string) result Result_cache.t option Atomic.t = Atomic.make None
let store_lock = Mutex.create ()

let force_store () =
  match Atomic.get store_cell with
  | Some s -> s
  | None ->
    Mutex.lock store_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock store_lock)
      (fun () ->
        match Atomic.get store_cell with
        | Some s -> s
        | None ->
          let s =
            Result_cache.create ~version:(Noc_util.Build_info.fingerprint ())
              ~encode:encode_result ~decode:decode_result ()
          in
          Atomic.set store_cell (Some s);
          s)

let enabled_flag = Atomic.make true

let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let at_exit_registered = Atomic.make false

let set_dir d =
  let s = force_store () in
  Result_cache.set_dir s d;
  if d <> None && not (Atomic.exchange at_exit_registered true) then
    at_exit (fun () -> Result_cache.persist_stats s)

let dir () = match Atomic.get store_cell with Some s -> Result_cache.dir s | None -> None

let stats () =
  if Atomic.get store_cell <> None then Result_cache.stats (force_store ())
  else Result_cache.zero_stats

let flush () =
  match Atomic.get store_cell with
  | Some s -> Result_cache.persist_stats s
  | None -> ()

let clear () = Result_cache.clear (force_store ())


(* --- canonical problem digest ------------------------------------------- *)

let kind_token = function Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"

(* Fixed-width binary fields with length prefixes: unambiguous (so
   distinct problems cannot collide before hashing), exact for floats
   (IEEE bits, no formatting), and cheap — this digest runs once per
   attempt on sweep hot paths, where a Printf-based rendering was
   slower than the cache hit it keyed. *)
let digest_problem ~config ~groups use_cases =
  let b = Buffer.create 4096 in
  let add_i i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_f x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  Buffer.add_string b "nocmap-problem 3";
  add_f config.Config.freq_mhz;
  add_i config.Config.link_width_bits;
  add_i config.Config.slots;
  add_i config.Config.slot_cycles;
  add_i config.Config.nis_per_switch;
  add_i (if config.Config.constrain_ni_links then 1 else 0);
  add_i config.Config.max_mesh_dim;
  add_i (match config.Config.routing with Config.Min_cost -> 0 | Config.Xy -> 1);
  add_i (match config.Config.topology with Mesh.Mesh -> 0 | Mesh.Torus -> 1);
  add_f config.Config.placement_hw_factor;
  add_f config.Config.placement_spread_factor;
  add_i (List.length groups);
  List.iter
    (fun g ->
      add_i (List.length g);
      List.iter add_i g)
    groups;
  add_i (List.length use_cases);
  List.iter
    (fun uc ->
      add_i uc.Use_case.cores;
      add_i (List.length uc.Use_case.flows);
      List.iter
        (fun f ->
          add_i f.Flow.src;
          add_i f.Flow.dst;
          add_f f.Flow.bandwidth;
          add_f f.Flow.latency_ns;
          add_i (match f.Flow.service with Flow.Guaranteed -> 0 | Flow.Best_effort -> 1))
        uc.Use_case.flows)
    use_cases;
  Digest.to_hex (Digest.string (Buffer.contents b))

let problem_digest ~config ~groups use_cases =
  Noc_obs.Tracer.with_span ~cat:"cache" "mapping_cache.digest" (fun () ->
      digest_problem ~config ~groups use_cases)

(* A plain grid is identified by (kind, width, height); [with_express]
   strictly adds links, so a matching link count proves there are none.
   Express meshes get a distinct key from their endpoint list — their
   results stay in memory (the codec cannot represent them), and the
   key must not collide with the grid's. *)
let mesh_key mesh =
  let kind = Mesh.kind mesh and w = Mesh.width mesh and h = Mesh.height mesh in
  let plain = Mesh.create_kind ~kind ~width:w ~height:h in
  if Mesh.link_count mesh = Mesh.link_count plain then
    Printf.sprintf "grid:%s:%d:%d" (kind_token kind) w h
  else begin
    let b = Buffer.create 256 in
    for l = 0 to Mesh.link_count mesh - 1 do
      let s, d = Mesh.link_endpoints mesh l in
      Buffer.add_string b (Printf.sprintf "%d>%d;" s d)
    done;
    Printf.sprintf "express:%s:%d:%d:%s" (kind_token kind) w h
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  end

let grid_key ~topology ~width ~height =
  Printf.sprintf "grid:%s:%d:%d" (kind_token topology) width height

(* --- copy in, copy out ---------------------------------------------------- *)

(* The memory tier holds mappings themselves, and a caller owns what it
   gets back (it may reserve into the states), so a value is copied on
   its way in and on every way out: no caller ever aliases a stored
   state, and a hit equals a fresh solve. *)
let copy_mapping (m : Mapping.t) =
  {
    m with
    Mapping.placement = Array.copy m.Mapping.placement;
    states = Array.map Resources.copy m.Mapping.states;
  }

let copy_result = Result.map copy_mapping

let lookup_result s key = Option.map copy_result (Result_cache.find s key)

let store_result s key result = Result_cache.add s key (copy_result result)

let cached key compute =
  if not (enabled ()) then compute ()
  else begin
    let s = force_store () in
    match lookup_result s key with
    | Some result -> result
    | None ->
      let result = compute () in
      store_result s key result;
      result
  end

(* --- map_design hooks ---------------------------------------------------- *)

let attempt_key digest ~topology ~width ~height =
  digest ^ "|attempt|" ^ grid_key ~topology ~width ~height

let design_cache ?(config = Config.default) ~groups use_cases =
  if not (enabled ()) then None
  else begin
    let s = force_store () in
    let digest = problem_digest ~config ~groups use_cases in
    let topology = config.Config.topology in
    Some
      {
        Mapping.lookup =
          (fun ~width ~height ->
            lookup_result s (attempt_key digest ~topology ~width ~height));
        store =
          (fun ~width ~height result ->
            store_result s (attempt_key digest ~topology ~width ~height) result);
      }
  end

(* --- cached single-attempt wrappers -------------------------------------- *)

let on_mesh ?(bias = Mapping.Compact) ~config ~mesh ~groups use_cases =
  let compute () = Mapping.map_on_mesh ~bias ~config ~mesh ~groups use_cases in
  if not (enabled ()) then compute ()
  else
    let digest = problem_digest ~config ~groups use_cases in
    let bias_tok = match bias with Mapping.Compact -> "compact" | Mapping.Spread -> "spread" in
    cached (digest ^ "|on_mesh|" ^ bias_tok ^ "|" ^ mesh_key mesh) compute

let with_placement ~config ~mesh ~groups ~placement use_cases =
  let compute () = Mapping.map_with_placement ~config ~mesh ~groups ~placement use_cases in
  if not (enabled ()) then compute ()
  else
    let digest = problem_digest ~config ~groups use_cases in
    let pl =
      Digest.to_hex
        (Digest.string
           (String.concat ","
              (Array.to_list (Array.map string_of_int placement))))
    in
    cached (digest ^ "|placed|" ^ pl ^ "|" ^ mesh_key mesh) compute
