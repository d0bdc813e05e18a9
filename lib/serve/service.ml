module Config = Noc_arch.Noc_config
module Mesh = Noc_arch.Mesh
module DF = Noc_core.Design_flow
module DS = Noc_power.Design_space
module Spec_parser = Noc_core.Spec_parser
module Mapping_cache = Noc_core.Mapping_cache
module Metrics = Noc_obs.Metrics

type kind =
  | Map_k of { spec : DF.spec; config : Config.t }
  | Explore_k of { spec : DF.spec; config : Config.t; axes : DS.axes }
  | Lint_k of { doc : Spec_parser.doc; config : Config.t; deep : bool }
  | Certify_k of { spec : DF.spec; config : Config.t }
  | Remap_k of { old_spec : DF.spec; new_spec : DF.spec; config : Config.t }

(* The key is lazy: only the daemon's coalescing reads it, and a
   one-shot run must not pay for the problem digest. *)
type job = { key : string Lazy.t; kind : kind }

let key j = Lazy.force j.key

let spec j =
  match j.kind with
  | Map_k { spec; _ } | Certify_k { spec; _ } -> Some spec
  | Explore_k _ | Lint_k _ | Remap_k _ -> None

(* The canonical mapping-problem digest of a parsed spec under a
   config (names excluded — see Mapping_cache).  The payload, though,
   embeds design and use-case names, so the single-flight key combines
   this digest with a digest of the canonical spec text: requests
   coalesce when both the problem and its naming agree, never when two
   differently-named specs happen to pose the same problem. *)
let problem_digest ~config spec =
  let all, _compounds, groups = DF.expand spec in
  Mapping_cache.problem_digest ~config ~groups all

let text_digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* A config-only digest (an empty problem under [config]): folds every
   knob, IEEE-exact, without repeating Mapping_cache's field list. *)
let config_digest config =
  Mapping_cache.problem_digest ~config ~groups:[] []

let parse_spec ~name text =
  match Spec_parser.parse ~name text with
  | Ok spec -> Ok spec
  | Error e -> Error (Protocol.Spec_error, Format.asprintf "%a" Spec_parser.pp_error e)

let axes_of ~frequencies ~slot_counts ~torus =
  let base = DS.default_axes in
  {
    DS.frequencies = Option.value frequencies ~default:base.DS.frequencies;
    slot_counts = Option.value slot_counts ~default:base.DS.slot_counts;
    topologies = (if torus then [ Mesh.Mesh; Mesh.Torus ] else base.DS.topologies);
  }

let axes_token (axes : DS.axes) =
  Printf.sprintf "f[%s]s[%s]t[%s]"
    (String.concat "," (List.map (Printf.sprintf "%h") axes.DS.frequencies))
    (String.concat "," (List.map string_of_int axes.DS.slot_counts))
    (String.concat ","
       (List.map (function Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus") axes.DS.topologies))

let spec_key ?(extra = "") op ~config spec =
  lazy
    (op ^ "|" ^ problem_digest ~config spec ^ "|" ^ text_digest [ Spec_parser.to_text spec ] ^ extra)

(* Lint reports a bad config as its own [config] diagnostic; every
   other operation would only raise on it, so it is refused here. *)
let noc_config config =
  let config = Protocol.to_noc_config config in
  match Config.validate config with
  | Ok () -> Ok config
  | Error msg -> Error (Protocol.Bad_request, "invalid configuration: " ^ msg)

let prepare (op : Protocol.op) =
  let ( let* ) = Result.bind in
  match op with
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
    Error (Protocol.Bad_request, "not an executable operation")
  | Protocol.Map { name; spec; config } ->
    let* config = noc_config config in
    let* spec = parse_spec ~name spec in
    Ok { key = spec_key "map" ~config spec; kind = Map_k { spec; config } }
  | Protocol.Certify { name; spec; config } ->
    let* config = noc_config config in
    let* spec = parse_spec ~name spec in
    Ok { key = spec_key "certify" ~config spec; kind = Certify_k { spec; config } }
  | Protocol.Explore { name; spec; config; frequencies; slot_counts; torus } ->
    let* config = noc_config config in
    let* spec = parse_spec ~name spec in
    let axes = axes_of ~frequencies ~slot_counts ~torus in
    let key = spec_key "explore" ~extra:("|" ^ axes_token axes) ~config spec in
    Ok { key; kind = Explore_k { spec; config; axes } }
  | Protocol.Lint { name; spec; config; deep } ->
    let config = Protocol.to_noc_config config in
    let doc = Spec_parser.parse_doc ~name spec in
    (* Lint diagnostics carry source lines, so the key digests the raw
       text, not a canonical rendering. *)
    let key =
      lazy
        (Printf.sprintf "lint|%b|%s|%s" deep (config_digest config) (text_digest [ name; spec ]))
    in
    Ok { key; kind = Lint_k { doc; config; deep } }
  | Protocol.Remap { from_name; from_spec; to_name; to_spec; config } ->
    let* config = noc_config config in
    (* One error code covers both specs: say which one failed. *)
    let parse ~name text =
      Result.map_error (fun (code, msg) -> (code, name ^ ": " ^ msg)) (parse_spec ~name text)
    in
    let* old_spec = parse ~name:from_name from_spec in
    let* new_spec = parse ~name:to_name to_spec in
    let key =
      lazy
        ("remap|" ^ problem_digest ~config old_spec ^ "|" ^ problem_digest ~config new_spec ^ "|"
        ^ text_digest [ Spec_parser.to_text old_spec; Spec_parser.to_text new_spec ])
    in
    Ok { key; kind = Remap_k { old_spec; new_spec; config } }

(* Memoized [prepare]: under coalescing load the same op (byte-equal
   spec text and knobs) arrives over and over, and parsing plus
   canonically digesting a large spec per request was measured to
   dominate the warm-path service time — it scales per request where
   everything downstream scales per distinct key.  The memo key is a
   digest of the marshalled op (in-process only, so representation
   stability across builds is irrelevant); jobs are immutable and their
   keys are forced here, on admission, so sharing the prepared value is
   safe.  Bounded by wholesale reset — the working set of distinct ops
   is tiny. *)
let memo : (string, (job, Protocol.error_code * string) result) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()
let memo_capacity = 512
let m_memo_hits = Metrics.counter "serve.prepare_memo_hits"

let prepare_cached op =
  let k = Digest.string (Marshal.to_string op []) in
  Mutex.lock memo_lock;
  match Hashtbl.find_opt memo k with
  | Some r ->
    Metrics.incr m_memo_hits;
    Mutex.unlock memo_lock;
    r
  | None ->
    Mutex.unlock memo_lock;
    let r = Result.map (fun j -> ignore (key j); j) (prepare op) in
    Mutex.lock memo_lock;
    if Hashtbl.length memo >= memo_capacity then Hashtbl.reset memo;
    Hashtbl.replace memo k r;
    Mutex.unlock memo_lock;
    r

(* --- coalescing ---------------------------------------------------------- *)

type plan = { unique : job array; assign : int array; coalesced : int }

let plan jobs =
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let unique = ref [] and n_unique = ref 0 in
  let assign =
    Array.map
      (fun j ->
        match Hashtbl.find_opt seen (key j) with
        | Some slot -> slot
        | None ->
          let slot = !n_unique in
          Hashtbl.add seen (key j) slot;
          unique := j :: !unique;
          incr n_unique;
          slot)
      jobs
  in
  {
    unique = Array.of_list (List.rev !unique);
    assign;
    coalesced = Array.length jobs - !n_unique;
  }

(* --- execution ----------------------------------------------------------- *)

let run ?(prune = true) ?(refine = false) ?(warm = true) j =
  let ( let* ) = Result.bind in
  match j.kind with
  | Map_k { spec; config } ->
    let* d = DF.run ~config ~prune ~refine spec in
    Ok (Payload.Design d)
  | Explore_k { spec; config; axes } ->
    let all, _compounds, groups = DF.expand spec in
    Ok (Payload.Points (DS.explore ~axes ~warm ~prune ~config ~groups all))
  | Lint_k { doc; config; deep } ->
    Ok (Payload.Lint (Noc_analysis.Analyzer.analyze_doc ~config ~deep doc))
  | Certify_k { spec; config } ->
    let* d = DF.run ~config ~prune spec in
    Ok
      (Payload.Certificate
         (Noc_analysis.Certify.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases))
  | Remap_k { old_spec; new_spec; config } ->
    let* old = DF.run ~config ~prune old_spec in
    let* remap = Noc_core.Remap.remap ~config ~prune ~old new_spec in
    Ok (Payload.Remapped { old; remap })

let execute j = Result.map Payload.render (run j)

let safe_execute j =
  try execute j with e -> Error (Printf.sprintf "internal error: %s" (Printexc.to_string e))

let execute_batch js = Array.of_list (Noc_util.Domain_pool.map safe_execute (Array.to_list js))
