(* nocmap: command-line driver for the multi-use-case NoC design flow.

   The spec-consuming operations (map, explore, lint, certify, remap)
   are described once, in the request table [operations]: each entry's
   term builds the [Protocol.op] a [nocmap serve] daemon executes.  The
   one-shot command runs that op in process through
   [Noc_serve.Service], the daemon's own path, so its [--json] bytes
   are the [Payload] the daemon would return; [nocmap client <op>] and
   [nocmap client bench <op>] send the very same op. *)

module Mesh = Noc_arch.Mesh
module Use_case = Noc_traffic.Use_case
module DF = Noc_core.Design_flow
module Mapping = Noc_core.Mapping
module WC = Noc_core.Worst_case
module Syn = Noc_benchkit.Synthetic
module SD = Noc_benchkit.Soc_designs
module Sim = Noc_sim.Simulator
module Protocol = Noc_serve.Protocol
module Service = Noc_serve.Service
module Payload = Noc_serve.Payload

open Cmdliner

let ( let* ) = Result.bind

(* Cmdliner's [ret] view of a command body's result. *)
let ret_of = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

let read_file file =
  try Ok (In_channel.with_open_bin file In_channel.input_all) with Sys_error msg -> Error msg

let write_file file text = Out_channel.with_open_text file (fun oc -> output_string oc text)

(* Payloads stream through the JSON writer; none is built as one string. *)
let write_payload file outcome =
  Out_channel.with_open_text file (fun oc -> Payload.output oc outcome)

(* A count below one is refused while the arguments are parsed (exit
   124), before anything is built from it. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > 0 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%d is not a positive integer" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Format.pp_print_int)

(* Likewise a duration in milliseconds must be finite and non-negative. *)
let non_negative_ms =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && x >= 0. -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not a finite, non-negative number" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* --- benchmark selection ------------------------------------------------- *)

let load_benchmark ~name ~use_cases ~seed =
  match String.lowercase_ascii name with
  | "d1" -> Ok (SD.d1 ())
  | "d2" -> Ok (SD.d2 ())
  | "d3" -> Ok (SD.d3 ())
  | "d4" -> Ok (SD.d4 ())
  | "example1" -> Ok SD.example1_use_cases
  | "viper" ->
    Ok [ SD.viper_fragment_1; Use_case.rename SD.viper_fragment_2 ~id:1 ~name:"viper-uc2" ]
  | "mobile" -> Ok (SD.mobile_phone ())
  | "sp" -> Ok (Syn.generate ~seed ~params:Syn.spread_params ~use_cases)
  | "bot" -> Ok (Syn.generate ~seed ~params:Syn.bottleneck_params ~use_cases)
  | other ->
    Error
      (Printf.sprintf
         "unknown benchmark '%s' (expected d1|d2|d3|d4|example1|viper|mobile|sp|bot)" other)

(* --- input: which spec ------------------------------------------------------ *)

let bench_arg =
  let doc = "Benchmark: d1, d2, d3, d4, example1, viper, mobile, sp (spread), bot (bottleneck)." in
  Arg.(value & pos 0 string "example1" & info [] ~docv:"BENCHMARK" ~doc)

let use_cases_arg =
  let doc = "Number of use-cases for synthetic benchmarks (sp/bot)." in
  Arg.(value & opt positive_int 5 & info [ "use-cases"; "u" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "PRNG seed for synthetic benchmarks." in
  Arg.(value & opt int 200 & info [ "seed" ] ~docv:"SEED" ~doc)

let spec_arg =
  let doc = "Read the design from a spec file instead of a named benchmark (see Noc_core.Spec_parser for the format)." in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

(* A request's spec travels as text: a spec file as its raw bytes,
   named after the file as [Spec_parser.parse_file] would name it. *)
type input = { name : string; text : string; file : string option }

let read_spec file =
  match read_file file with
  | Ok text -> Ok (Filename.remove_extension (Filename.basename file), text)
  | Error msg -> Error (Printf.sprintf "%s: line 0: %s" file msg)

(* A benchmark becomes its canonical [Spec_parser.to_text] rendering,
   so a one-shot command and the daemon parse the very same text. *)
let input_term =
  let resolve bench use_cases seed = function
    | Some file ->
      let* name, text = read_spec file in
      Ok { name; text; file = Some file }
    | None ->
      let* ucs = load_benchmark ~name:bench ~use_cases ~seed in
      let spec = DF.spec_of_use_cases ~name:bench ucs in
      Ok { name = spec.DF.name; text = Noc_core.Spec_parser.to_text spec; file = None }
  in
  Term.(const resolve $ bench_arg $ use_cases_arg $ seed_arg $ spec_arg)

(* --- config: the request's design knobs -------------------------------------- *)

let nis_arg =
  let doc = "Maximum NIs (cores) per switch." in
  Arg.(
    value
    & opt int Protocol.default_config.nis_per_switch
    & info [ "nis-per-switch" ] ~docv:"N" ~doc)

let xy_arg =
  let doc = "Use dimension-ordered (XY) routing instead of min-cost path search." in
  Arg.(value & flag & info [ "xy" ] ~doc)

let config_term =
  let d = Protocol.default_config in
  let freq =
    let doc = "NoC operating frequency, MHz." in
    Arg.(value & opt float d.Protocol.freq_mhz & info [ "freq"; "f" ] ~docv:"MHZ" ~doc)
  in
  let slots =
    let doc = "TDMA slot-table size." in
    Arg.(value & opt int d.Protocol.slots & info [ "slots" ] ~docv:"SLOTS" ~doc)
  in
  let make freq_mhz slots nis_per_switch xy = { Protocol.freq_mhz; slots; nis_per_switch; xy } in
  Term.(const make $ freq $ slots $ nis_arg $ xy_arg)

(* --- process: pool, cache and observability ----------------------------------- *)

let jobs_arg =
  let doc =
    "Worker domains for the shared pool (design-space sweeps, minimum-frequency scans, \
     experiment fan-out, the simulator's GT pass).  The mesh-size search itself runs on one \
     domain.  Results do not depend on it.  Defaults to the machine's recommended domain \
     count."
  in
  Arg.(value & opt (some positive_int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Persist mapping results under $(docv): identical problems in later runs replay the stored \
     placement, routes and slot assignments instead of re-solving.  Entries are keyed by a \
     canonical problem digest and namespaced by the build fingerprint, so a rebuilt nocmap \
     never reads stale results."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc =
    "Disable the in-process mapping cache (and ignore $(b,--cache-dir)).  Results are identical \
     either way; this is the honest-timing / debugging escape hatch."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

module Tracer = Noc_obs.Tracer
module Metrics = Noc_obs.Metrics

let trace_arg =
  let doc =
    "Record a span trace of this run and write it to $(docv) as Chrome trace_event JSON \
     (load it at ui.perfetto.dev or chrome://tracing).  Tracing is passive: the designed \
     NoC and every export are byte-identical to an untraced run."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the process-wide metrics registry (counters, gauges, span histograms) to $(docv) \
     as JSON when the command exits."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* [--jobs], the cache flags and [--trace]/[--metrics], applied once
   before the command body runs.  [~jobs:false]/[~cache:false] leave
   the flags off commands that have never offered them.  Files are
   written from [at_exit] so a command that [exit]s early (lint's
   diagnostic exit codes, a cmdliner error path) still flushes what it
   saw. *)
let process_term ?(jobs = true) ?(cache = true) () =
  let apply jobs no_cache cache_dir trace metrics =
    Option.iter Noc_util.Domain_pool.set_default_jobs jobs;
    if no_cache then Noc_core.Mapping_cache.set_enabled false
    else Option.iter (fun d -> Noc_core.Mapping_cache.set_dir (Some d)) cache_dir;
    if trace <> None then Tracer.set_enabled true;
    if trace <> None || metrics <> None then
      at_exit (fun () ->
          (match trace with
          | Some file ->
            Tracer.write_file file (Tracer.export_chrome ());
            Printf.eprintf "trace: %d spans written to %s\n%!"
              (List.length (Tracer.events ()))
              file
          | None -> ());
          match metrics with
          | Some file ->
            Tracer.write_file file (Metrics.render_json (Metrics.snapshot ()));
            Printf.eprintf "metrics: snapshot written to %s\n%!" file
          | None -> ())
  in
  let off = Term.const None in
  Term.(
    const apply
    $ (if jobs then jobs_arg else off)
    $ (if cache then no_cache_arg else const false)
    $ (if cache then cache_dir_arg else off)
    $ trace_arg $ metrics_arg)

(* --- requests ------------------------------------------------------------------ *)

(* An operation's request: the op, and the spec file a spec error
   names ([None] for a benchmark, and for remap, whose errors name
   the revision). *)
type request = { op : Protocol.op; file : string option }

(* The request of an operation on one spec; [make] is the term of the
   op's own flags, applied to the spec's name and text. *)
let spec_request make =
  let build input make =
    let* { name; text; file } = input in
    Ok { op = make name text; file }
  in
  Term.(const build $ input_term $ make)

let map_request =
  spec_request
    Term.(const (fun config name spec -> Protocol.Map { name; spec; config }) $ config_term)

(* The sweep chooses frequency and slot count itself; of the config
   knobs it reads only these two. *)
let explore_request =
  let torus =
    let doc = "Also explore torus grids." in
    Arg.(value & flag & info [ "torus" ] ~doc)
  in
  let make nis_per_switch xy torus name spec =
    let config = { Protocol.default_config with nis_per_switch; xy } in
    Protocol.Explore { name; spec; config; frequencies = None; slot_counts = None; torus }
  in
  spec_request Term.(const make $ nis_arg $ xy_arg $ torus)

let lint_request =
  let deep =
    let doc = "Also run the full design flow and the post-mapping design passes." in
    Arg.(value & flag & info [ "deep" ] ~doc)
  in
  spec_request
    Term.(const (fun config deep name spec -> Protocol.Lint { name; spec; config; deep })
          $ config_term $ deep)

let certify_request =
  spec_request
    Term.(const (fun config name spec -> Protocol.Certify { name; spec; config }) $ config_term)

let remap_request =
  let from_file =
    let doc = "The previous revision's spec file (the completed design to churn from)." in
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"OLD.spec" ~doc)
  in
  let to_file =
    let doc = "The new revision's spec file." in
    Arg.(required & opt (some string) None & info [ "to" ] ~docv:"NEW.spec" ~doc)
  in
  let build from_file to_file config =
    let* from_name, from_spec = read_spec from_file in
    let* to_name, to_spec = read_spec to_file in
    Ok { op = Protocol.Remap { from_name; from_spec; to_name; to_spec; config }; file = None }
  in
  Term.(const build $ from_file $ to_file $ config_term)

(* Prepare a request for an in-process [Service.run]; a spec error
   names the file it came from. *)
let prepare { op; file } =
  Result.map_error
    (fun (code, msg) ->
      match (code, file) with Protocol.Spec_error, Some f -> f ^ ": " ^ msg | _ -> msg)
    (Service.prepare op)

(* --- engine and output flags ---------------------------------------------------- *)

let refine_arg =
  let doc = "Run the simulated-annealing placement refinement after mapping." in
  Arg.(value & flag & info [ "refine" ] ~doc)

let wc_arg =
  let doc = "Design with the worst-case baseline method [25] instead of the multi-use-case method." in
  Arg.(value & flag & info [ "wc" ] ~doc)

let no_prune_arg =
  let doc =
    "Disable static feasibility pruning: attempt every mesh size of the growth sequence even \
     when a certificate proves it infeasible.  The designed NoC is identical either way."
  in
  Arg.(value & flag & info [ "no-prune" ] ~doc)

let systemc_arg =
  let doc = "Write the generated SystemC model to $(docv)." in
  Arg.(value & opt (some string) None & info [ "systemc" ] ~docv:"FILE" ~doc)

let vhdl_arg =
  let doc = "Write the generated structural VHDL to $(docv)." in
  Arg.(value & opt (some string) None & info [ "vhdl" ] ~docv:"FILE" ~doc)

let dot_arg =
  let doc = "Write the topology/placement as Graphviz DOT to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let dot_uc_arg =
  let doc =
    "Write use-case $(docv)'s configuration heat map as Graphviz DOT to \
     $(i,NAME)_uc$(docv).dot, $(i,NAME) being the design's name."
  in
  Arg.(value & opt (some int) None & info [ "dot-use-case" ] ~docv:"UC" ~doc)

let dump_arg =
  let doc =
    "Write the designed mapping as a canonical Mapping_codec dump to $(docv) — the format \
     $(b,nocmap certify --from) audits."
  in
  Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)

let certify_flag_arg =
  let doc =
    "Run the independent certificate checker (Noc_analysis.Certify) on the finished design as a \
     final flow phase; any finding fails the command."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

(* The [--json FILE] of map, explore and remap: the exact bytes a
   daemon returns for the same request. *)
let json_file_arg =
  let doc =
    "Write the payload as JSON to $(docv) — the exact bytes a $(b,nocmap serve) daemon \
     returns for the same request, so the two can be compared with $(b,cmp)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* The [--json] flag of lint and certify, which print to stdout. *)
let json_flag_arg what =
  let doc = "Emit the " ^ what ^ " as JSON on stdout." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* --- map -------------------------------------------------------------------- *)

let print_design name mapping verified =
  Format.printf "design %s: mapped onto %a (%d switches in use)@." name Mesh.pp
    mapping.Mapping.mesh
    (Mapping.switches_in_use mapping);
  Format.printf "verification: %s@." (if verified then "OK" else "FAILED");
  Format.printf "area: %a, power: %.1f mW@." Noc_util.Units.pp_area
    (Noc_power.Area_model.noc_area mapping)
    (Noc_power.Power_model.noc_power mapping).Noc_power.Power_model.total_mw

let emit_text what file text =
  write_file file text;
  Format.printf "%s written to %s (%d bytes)@." what file (String.length text)

let emit_rtl what ~generate ~check path name mapping =
  match path with
  | None -> Ok ()
  | Some file -> (
    let text = generate ~design_name:name mapping in
    match check text with
    | Ok () ->
      write_file file text;
      Format.printf "%s written to %s (%d bytes, lint clean)@." what file (String.length text);
      Ok ()
    | Error issues ->
      Error (Printf.sprintf "generated %s failed lint (%d issues)" what (List.length issues)))

let emit_dump path mapping =
  match path with
  | None -> Ok ()
  | Some file -> (
    match Noc_core.Mapping_codec.encode mapping with
    | Some text ->
      emit_text "mapping dump" file text;
      Ok ()
    | None -> Error "this mapping cannot be encoded (mesh carries express channels)")

let emit_dot dot dot_uc name mapping =
  Option.iter (fun file -> emit_text "DOT topology" file (Noc_export.Dot.topology mapping)) dot;
  match dot_uc with
  | None -> Ok ()
  | Some uc when uc < 0 || uc >= Array.length mapping.Mapping.states ->
    Error (Printf.sprintf "--dot-use-case %d: the design has no such use-case" uc)
  | Some uc ->
    let file = Printf.sprintf "%s_uc%d.dot" name uc in
    emit_text "DOT use-case view" file (Noc_export.Dot.use_case mapping ~use_case:uc);
    Ok ()

let certify_design (d : DF.t) =
  let module C = Noc_analysis.Certify in
  let cert = C.certify ~name:d.DF.spec.DF.name d.DF.mapping d.DF.all_use_cases in
  print_string (C.render_text cert);
  if C.clean cert then Ok ()
  else Error (Printf.sprintf "certificate rejected (%d findings)" (List.length cert.C.findings))

let run_map () refine wc no_prune vhdl systemc dump dot dot_uc certify json request =
  let* job = prepare request in
  let emits name m =
    let* () =
      emit_rtl "VHDL" ~generate:Noc_rtl.Netlist.generate ~check:Noc_rtl.Wellformed.check vhdl
        name m
    in
    let* () =
      emit_rtl "SystemC" ~generate:Noc_rtl.Systemc.generate ~check:Noc_rtl.Systemc.check systemc
        name m
    in
    let* () = emit_dump dump m in
    emit_dot dot dot_uc name m
  in
  match (Service.spec job, request.op) with
  | Some spec, Protocol.Map { config; _ } when wc -> (
    if certify then Error "--certify applies to the multi-use-case flow, not --wc"
    else if json <> None then Error "--json applies to the multi-use-case flow, not --wc"
    else
      match WC.map_design ~config:(Protocol.to_noc_config config) spec.DF.use_cases with
      | Error failure -> Error (Format.asprintf "%a" Mapping.pp_failure failure)
      | Ok m ->
        print_design (spec.DF.name ^ " (WC method)") m true;
        emits spec.DF.name m)
  | _ -> (
    match Service.run ~prune:(not no_prune) ~refine job with
    | Error msg -> Error msg
    | Ok (Payload.Design d as outcome) ->
      let name = d.DF.spec.DF.name in
      let* () =
        if certify then
          Result.map_error (Printf.sprintf "%s: post-phase: %s" name) (certify_design d)
        else Ok ()
      in
      print_design name d.DF.mapping (DF.verified d);
      Option.iter
        (fun file ->
          write_payload file outcome;
          Format.printf "wrote %s@." file)
        json;
      emits name d.DF.mapping
    | Ok _ -> assert false)

(* --- experiments -------------------------------------------------------------- *)

let experiments_arg =
  let doc = "Which experiment to run: all, fig6a, fig6b, fig6c, s62, fig7a, fig7b, fig7c, ablations." in
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)

let run_experiments () which =
  let module E = Noc_benchkit.Experiments in
  match String.lowercase_ascii which with
  | "all" ->
    E.print_all ();
    Noc_benchkit.Ablations.print_all ();
    `Ok ()
  | "ablations" ->
    Noc_benchkit.Ablations.print_all ();
    `Ok ()
  | one -> ret_of (E.print_one one)

let experiments_cmd =
  let doc = "Regenerate the paper's evaluation figures (Fig 6a-c, Sec 6.2, Fig 7a-c)." in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(ret (const run_experiments $ process_term () $ experiments_arg))

(* --- generate ------------------------------------------------------------------- *)

let run_generate bench use_cases seed =
  ret_of
  @@
  let* ucs = load_benchmark ~name:bench ~use_cases ~seed in
  Format.printf "%a@.@." Noc_traffic.Traffic_stats.pp (Noc_traffic.Traffic_stats.compute ucs);
  List.iter
    (fun u ->
      Format.printf "%a@." Use_case.pp u;
      List.iter (fun f -> Format.printf "  %a@." Noc_traffic.Flow.pp f) u.Use_case.flows)
    ucs;
  Ok ()

let generate_cmd =
  let doc = "Print the traffic description of a benchmark." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(ret (const run_generate $ bench_arg $ use_cases_arg $ seed_arg))

(* --- simulate ------------------------------------------------------------------- *)

(* The designed NoC simulate and report start from: a local map op. *)
let design_of request =
  let* job = Result.bind request prepare in
  match Service.run job with
  | Ok (Payload.Design d) -> Ok d
  | Ok _ -> assert false
  | Error msg -> Error msg

let duration_arg =
  let doc = "Simulation length in TDMA slots (a positive integer)." in
  Arg.(value & opt positive_int 3200 & info [ "duration" ] ~docv:"SLOTS" ~doc)

let reference_sim_arg =
  let doc =
    "Run the pinned reference tick-loop simulator core instead of the default event-driven \
     core.  Results are byte-identical; only speed differs."
  in
  Arg.(value & flag & info [ "reference-sim" ] ~doc)

let sim_json_arg =
  let doc =
    "Write the per-use-case simulation results as JSON to $(docv).  The file records results \
     only, never which core produced them, so runs with and without $(b,--reference-sim) can \
     be compared byte for byte."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* %.17g round-trips every finite double, so byte-equal files <=>
   byte-equal results; JSON has no Infinity, hence the quoted "inf"
   for the BE latency bound. *)
let write_sim_json path results =
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "\"inf\"" in
  let conn (c : Sim.conn_stats) =
    Printf.sprintf
      "{\"flow_id\":%d,\"service\":\"%s\",\"offered_mbps\":%s,\"delivered_mbps\":%s,\
       \"mean_latency_ns\":%s,\"max_latency_ns\":%s,\"bound_ns\":%s,\
       \"final_backlog_bytes\":%s,\"max_backlog_bytes\":%s}"
      c.Sim.flow_id
      (match c.Sim.service with Noc_arch.Route.Gt -> "gt" | Noc_arch.Route.Be -> "be")
      (num c.Sim.offered_mbps) (num c.Sim.delivered_mbps) (num c.Sim.mean_latency_ns)
      (num c.Sim.max_latency_ns) (num c.Sim.bound_ns) (num c.Sim.final_backlog_bytes)
      (num c.Sim.max_backlog_bytes)
  in
  let one (name, (res : Sim.result)) =
    Printf.sprintf
      "  {\"use_case\":\"%s\",\"duration_slots\":%d,\"slot_ns\":%s,\"collisions\":%d,\
       \"conns\":[%s]}"
      name res.Sim.duration_slots (num res.Sim.slot_ns) res.Sim.collisions
      (String.concat "," (List.map conn res.Sim.conns))
  in
  let oc = open_out path in
  Printf.fprintf oc "[\n%s\n]\n" (String.concat ",\n" (List.map one results));
  close_out oc

let run_simulate () duration reference_sim sim_json request =
  ret_of
  @@
  let* d = design_of request in
  let m = d.DF.mapping in
  let core = if reference_sim then `Reference else `Event in
  Format.printf "%a@.@." DF.pp_summary d;
  let results =
    List.map
      (fun u ->
        let routes = Mapping.routes_of_use_case m u.Use_case.id in
        let res =
          Tracer.with_span ~cat:"sim"
            ~args:[ ("use_case", Tracer.Str u.Use_case.name) ]
            "simulate:use_case"
            (fun () ->
              Sim.simulate_with ~core ~sources:[] ~config:m.Mapping.config ~routes
                ~duration_slots:duration)
        in
        Format.printf "%s: %s (%d connections, %d collisions)@." u.Use_case.name
          (if Sim.within_contract res then "contracts met" else "CONTRACT VIOLATION")
          (List.length res.Sim.conns) res.Sim.collisions;
        (u.Use_case.name, res))
      d.DF.all_use_cases
  in
  Option.iter (fun path -> write_sim_json path results) sim_json;
  Ok ()

let simulate_cmd =
  let doc = "Design a NoC, then simulate every use-case configuration slot by slot." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run_simulate $ process_term () $ duration_arg $ reference_sim_arg $ sim_json_arg
       $ map_request))

(* --- explore ------------------------------------------------------------------------ *)

let cold_arg =
  let doc =
    "Disable placement-seeded warm starts: every sweep point runs the full growth search from \
     scratch.  Slower; the feasibility set and switch counts are identical either way."
  in
  Arg.(value & flag & info [ "cold" ] ~doc)

let run_explore () cold no_prune json request =
  let* job = prepare request in
  match Service.run ~warm:(not cold) ~prune:(not no_prune) job with
  | Error msg -> Error msg
  | Ok (Payload.Points points as outcome) ->
    (match json with
    | Some file ->
      write_payload file outcome;
      Format.printf "wrote %s (%d points)@." file (List.length points)
    | None -> Noc_power.Design_space.print points);
    Ok ()
  | Ok _ -> assert false

(* --- report ------------------------------------------------------------------------ *)

let run_report () request =
  ret_of
  @@
  let* d = design_of request in
  Noc_report.Design_report.print (Noc_report.Design_report.build d);
  Ok ()

let report_cmd =
  let doc = "Design a NoC and print the full analytic report (guarantees, slacks, utilization, buffers, switching costs)." in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(ret (const run_report $ process_term ~jobs:false () $ map_request))

(* --- lint ------------------------------------------------------------------------ *)

let run_lint () json request =
  let* job = prepare request in
  match Service.run job with
  | Error msg -> Error msg
  | Ok (Payload.Lint report as outcome) -> (
    if json then Payload.output stdout outcome
    else print_string (Noc_analysis.Analyzer.render_text report);
    match Noc_analysis.Analyzer.exit_code report with 0 -> Ok () | n -> exit n)
  | Ok _ -> assert false

(* --- certify --------------------------------------------------------------------- *)

let certify_from_arg =
  let doc =
    "Audit a Mapping_codec dump (see $(b,map --dump)) instead of designing in-process.  The \
     dump's own recorded configuration is certified; the spec or benchmark still supplies the \
     traffic the design claims to serve."
  in
  Arg.(value & opt (some string) None & info [ "from" ] ~docv:"DUMP" ~doc)

let run_certify () json from request =
  let module C = Noc_analysis.Certify in
  let* job = prepare request in
  let finish cert =
    if json then Payload.output stdout (Payload.Certificate cert)
    else print_string (C.render_text cert);
    match C.exit_code cert with 0 -> Ok () | n -> exit n
  in
  match (from, Service.spec job) with
  | Some file, Some spec ->
    let* text = read_file file in
    let* mapping =
      Result.map_error (Printf.sprintf "%s: %s" file) (Noc_core.Mapping_codec.decode text)
    in
    let all, _, _ = DF.expand spec in
    finish (C.certify ~name:spec.DF.name mapping all)
  | _ -> (
    match Service.run job with
    | Error msg -> Error msg
    | Ok (Payload.Certificate cert) -> finish cert
    | Ok _ -> assert false)

(* --- cache ------------------------------------------------------------------------ *)

let cache_action_arg =
  let doc = "What to do: $(b,stats) reports the store's contents and cumulative counters; $(b,clear) deletes every entry under the directory." in
  Arg.(value & pos 0 (enum [ ("stats", `Stats); ("clear", `Clear) ]) `Stats & info [] ~docv:"ACTION" ~doc)

let run_cache action cache_dir =
  let module RC = Noc_util.Result_cache in
  match cache_dir with
  | None -> `Error (false, "nocmap cache requires --cache-dir")
  | Some dir -> (
    match action with
    | `Clear ->
      let removed = RC.clear_disk ~dir in
      Format.printf "removed %d files under %s@." removed dir;
      `Ok ()
    | `Stats ->
      let fingerprint = Noc_util.Build_info.fingerprint () in
      Format.printf "build: %s (current)@." (Noc_util.Build_info.describe ());
      let totals = ref RC.zero_stats in
      (match RC.disk_summary ~dir with
      | [] -> Format.printf "store %s: empty@." dir
      | versions ->
        Format.printf "store %s:@." dir;
        List.iter
          (fun (version, entries, bytes) ->
            let marker = if String.equal version fingerprint then " (current build)" else "" in
            Format.printf "  v-%s: %d entries, %d bytes%s@." version entries bytes marker;
            match RC.read_persisted_stats ~dir ~version with
            | None -> ()
            | Some s ->
              totals := RC.add_stats !totals s;
              Format.printf
                "    cumulative: %d memory hits, %d disk hits, %d misses, %d stores, %d \
                 evictions, %d disk errors@."
                s.RC.memory_hits s.RC.disk_hits s.RC.misses s.RC.stores s.RC.evictions
                s.RC.disk_errors)
          versions);
      (* Replay the cross-build totals into the unified metrics registry and
         render them through it, so this report and `nocmap obs stats` speak
         the same counter names. *)
      let s = !totals in
      List.iter
        (fun (name, v) -> if v > 0 then Metrics.incr ~by:v (Metrics.counter name))
        [
          ("cache.memory_hits", s.RC.memory_hits);
          ("cache.disk_hits", s.RC.disk_hits);
          ("cache.misses", s.RC.misses);
          ("cache.stores", s.RC.stores);
          ("cache.evictions", s.RC.evictions);
          ("cache.disk_errors", s.RC.disk_errors);
        ];
      Format.printf "unified registry view (all versions):@.";
      print_string (Metrics.render_text (Metrics.snapshot ()));
      `Ok ())

let cache_cmd =
  let doc =
    "Inspect or clear a persistent mapping cache directory (see $(b,--cache-dir) on the design \
     commands).  Entries from other builds are kept until $(b,clear) — they become reusable \
     again when that exact build runs."
  in
  Cmd.v (Cmd.info "cache" ~doc) Term.(ret (const run_cache $ cache_action_arg $ cache_dir_arg))

(* --- remap ----------------------------------------------------------------------- *)

let run_remap () no_prune json dump certify request =
  let open Noc_core.Remap in
  let* job = prepare request in
  match Service.run ~prune:(not no_prune) job with
  | Error msg -> Error msg
  | Ok (Payload.Remapped { old; remap = o } as outcome) ->
    let design = o.design in
    Format.printf "remap %s -> %s: %s@." old.DF.spec.DF.name design.DF.spec.DF.name
      (match o.path with
      | Reused -> "reused (no routing ran)"
      | Delta n -> Printf.sprintf "delta (%d dirty group%s re-routed)" n (if n = 1 then "" else "s")
      | Warm_placement -> "warm placement (whole problem re-routed on the old mesh)"
      | Regrown -> "regrown (full growth search)");
    Format.printf "groups: %d clean, %d dirty, %d removed@." (List.length o.delta.clean)
      (List.length o.delta.dirty)
      (List.length o.delta.removed);
    print_design design.DF.spec.DF.name design.DF.mapping (DF.verified design);
    Option.iter
      (Format.printf "mapping digest: %s@.")
      (Noc_core.Mapping_codec.digest design.DF.mapping);
    Option.iter
      (fun file ->
        write_payload file outcome;
        Format.printf "wrote %s@." file)
      json;
    let* () = emit_dump dump design.DF.mapping in
    (* Certify the stitched design as a whole — not just the dirty
       groups the remapper re-routed. *)
    if certify then certify_design design else Ok ()
  | Ok _ -> assert false

(* --- the request table -------------------------------------------------------- *)

(* One entry per spec-consuming operation: [request] builds its op
   from the input, the config knobs and the op's own flags;
   [oneshot] is the one-shot command's body over the flags only the
   CLI offers (process settings, engine escape hatches, output
   files), running the request in process.  The one-shot command,
   [client <op>] and [client bench <op>] are all derived from it. *)
type operation = {
  name : string;
  doc : string;
  request : (request, string) result Term.t;
  oneshot : (request -> (unit, string) result) Term.t;
}

let operations =
  [
    {
      name = "map";
      doc = "Design the smallest NoC satisfying every use-case of a benchmark.";
      request = map_request;
      oneshot =
        Term.(
          const run_map $ process_term () $ refine_arg $ wc_arg $ no_prune_arg $ vhdl_arg
          $ systemc_arg $ dump_arg $ dot_arg $ dot_uc_arg $ certify_flag_arg $ json_file_arg);
    };
    {
      name = "explore";
      doc =
        "Explore the (frequency x slot-table x topology) design space and mark the Pareto front.";
      request = explore_request;
      oneshot =
        Term.(const run_explore $ process_term () $ cold_arg $ no_prune_arg $ json_file_arg);
    };
    {
      name = "lint";
      doc =
        "Statically analyze a spec or benchmark: well-formedness passes, feasibility \
         certificates, and (with $(b,--deep)) the post-mapping design passes.  Exits 2 on \
         errors, 1 on warnings, 0 when clean.";
      request = lint_request;
      oneshot =
        Term.(
          const run_lint $ process_term ~cache:false ()
          $ json_flag_arg "diagnostics and the feasibility certificate");
    };
    {
      name = "certify";
      doc =
        "Independently certify a mapped design: re-derive slot exclusivity, reserved \
         bandwidth, route well-formedness, NI bounds and static worst-case latency bounds on a \
         code path separate from the mapping engine, and emit a signed certificate.  Exits 2 \
         on any finding, 0 when clean.";
      request = certify_request;
      oneshot =
        Term.(
          const run_certify $ process_term () $ json_flag_arg "full signed certificate record"
          $ certify_from_arg);
    };
    {
      name = "remap";
      doc =
        "Incrementally re-map a churned spec: re-route only the switching-graph components the \
         delta touches, keeping every unaffected group's configuration byte-identical to the \
         $(b,--from) design.";
      request = remap_request;
      oneshot =
        Term.(
          const run_remap $ process_term () $ no_prune_arg $ json_file_arg $ dump_arg
          $ certify_flag_arg);
    };
  ]

let oneshot_cmd { name; doc; request; oneshot } =
  let run body request = ret_of (Result.bind request body) in
  Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ oneshot $ request))

(* --- serve / client -------------------------------------------------------------- *)

module Server = Noc_serve.Server
module Client = Noc_serve.Client

let socket_arg =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_defaults = Server.default_config ~socket_path:""

let max_queue_arg =
  let doc =
    "Pending-request cap across all clients; requests beyond it are shed with an \
     $(i,overloaded) failure carrying $(b,retry_after_ms)."
  in
  Arg.(value & opt positive_int serve_defaults.max_queue & info [ "max-queue" ] ~docv:"N" ~doc)

let max_inflight_arg =
  let doc = "Per-client cap on queued requests; beyond it requests fail with $(i,too-many-inflight)." in
  Arg.(
    value
    & opt positive_int serve_defaults.max_inflight
    & info [ "max-inflight" ] ~docv:"N" ~doc)

let linger_ms_arg =
  let doc =
    "Hold a non-empty batch open this long before executing, so concurrent clients' requests \
     coalesce into one batch.  0 executes as soon as the sockets are drained (requests \
     arriving while a batch computes still form the next batch naturally)."
  in
  Arg.(value & opt non_negative_ms serve_defaults.linger_ms & info [ "linger-ms" ] ~docv:"MS" ~doc)

let retry_after_ms_arg =
  let doc = "Backoff hint attached to load-shed failures." in
  Arg.(value & opt int serve_defaults.retry_after_ms & info [ "retry-after-ms" ] ~docv:"MS" ~doc)

let run_serve () socket max_queue max_inflight linger_ms retry_after_ms =
  let cfg =
    {
      Server.socket_path = socket;
      max_queue;
      max_inflight;
      linger_ms;
      retry_after_ms;
      install_signals = true;
    }
  in
  Format.printf "nocmap serve: listening on %s (build %s)@." socket
    (Noc_util.Build_info.fingerprint ());
  Format.print_flush ();
  ret_of (Result.map (fun () -> Format.printf "nocmap serve: drained and stopped@.") (Server.run cfg))

let serve_cmd =
  let doc =
    "Serve mapping requests over a Unix-domain socket: line-delimited JSON requests \
     ($(i,map), $(i,explore), $(i,lint), $(i,certify), $(i,remap)) from concurrent clients, \
     scheduled in batches onto the shared domain pool with single-flight coalescing of \
     identical problems and admission control.  Each request runs the same Service path as \
     the equivalent one-shot command, so responses are byte-identical to its output.  \
     SIGTERM (or a $(i,shutdown) request) drains in-flight work, flushes the persistent cache \
     tier and exits cleanly."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run_serve $ process_term () $ socket_arg $ max_queue_arg $ max_inflight_arg
       $ linger_ms_arg $ retry_after_ms_arg))

(* One request; the payload goes to stdout or [--out FILE]. *)
let run_client socket out request =
  ret_of
  @@
  let* { op; _ } = request in
  let* conn = Client.connect ~socket () in
  let response = Client.request conn op in
  Client.close conn;
  match response with
  | Error msg -> Error msg
  | Ok (Protocol.Failure { code; message; _ }) ->
    Error (Printf.sprintf "%s: %s" (Protocol.error_code_to_string code) message)
  | Ok (Protocol.Result { payload; _ }) ->
    (match out with
    | Some file ->
      write_file file payload;
      Format.printf "wrote %s (%d bytes)@." file (String.length payload)
    | None -> print_string payload);
    Ok ()

let run_bench socket connections repeat request =
  ret_of
  @@
  let* { op; _ } = request in
  let* stats = Client.drive ~socket ~connections ~repeat [ op ] in
  print_endline (Client.stats_to_json stats);
  Ok ()

let client_cmd =
  let out =
    let doc = "Write the response payload to $(docv) instead of stdout (exact bytes, cmp-able)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let connections =
    let doc = "Concurrent connections." in
    Arg.(value & opt positive_int 8 & info [ "connections" ] ~docv:"N" ~doc)
  in
  let repeat =
    let doc = "Rounds per connection." in
    Arg.(value & opt positive_int 3 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let send name doc request =
    Cmd.v (Cmd.info name ~doc) Term.(ret (const run_client $ socket_arg $ out $ request))
  in
  let control name doc op = send name doc (Term.const (Ok { op; file = None })) in
  let request { name; request; _ } =
    send name ("Send a $(b," ^ name ^ ") request; the payload is its --json output.") request
  in
  let bench { name; request; _ } =
    let doc = "Issue $(b," ^ name ^ ") requests and print a one-line JSON summary." in
    Cmd.v (Cmd.info name ~doc)
      Term.(ret (const run_bench $ socket_arg $ connections $ repeat $ request))
  in
  let doc =
    "Talk to a running $(b,nocmap serve) daemon: issue one request and print (or $(b,--out)) \
     the payload — byte-identical to the equivalent one-shot command's output — or drive a \
     multi-connection load test with $(b,bench)."
  in
  Cmd.group (Cmd.info "client" ~doc)
    ([
       control "ping" "Check that the daemon is up." Protocol.Ping;
       control "stats" "Print the daemon's metrics registry as JSON." Protocol.Stats;
       control "shutdown" "Drain in-flight work and stop the daemon." Protocol.Shutdown;
     ]
    @ List.map request operations
    @ [
        Cmd.group
          (Cmd.info "bench" ~doc:"The load driver: one op from many connections, many rounds.")
          (List.map bench operations);
      ])

(* --- obs ------------------------------------------------------------------------- *)

module J = Noc_export.Json

let parse_json_file file =
  let* text = read_file file in
  Result.map_error (Printf.sprintf "%s: %s" file) (J.parse text)

(* Rebuild a [Metrics.snapshot] from a metrics JSON file, checking the
   schema as it goes — this is also the metrics half of [obs validate]:
   the three sections must be objects, counters non-negative integers,
   and each histogram's min <= p50 <= p90 <= p99 <= max when non-empty. *)
let snapshot_of_json v =
  let section name =
    match J.member name v with
    | Some (J.Obj fields) -> Ok fields
    | Some _ -> Error (Printf.sprintf "\"%s\" must be an object" name)
    | None -> Error (Printf.sprintf "missing \"%s\" object" name)
  in
  (* Check every field of a section, stopping at the first bad one. *)
  let each name check =
    let* fields = section name in
    List.fold_left
      (fun acc (n, x) ->
        let* acc = acc in
        let* y = check n x in
        Ok ((n, y) :: acc))
      (Ok []) fields
    |> Result.map List.rev
  in
  let* counters =
    each "counters" (fun n -> function
      | J.Int i when i >= 0 -> Ok i
      | _ -> Error (Printf.sprintf "counter \"%s\" must be a non-negative integer" n))
  in
  let* gauges =
    each "gauges" (fun n x ->
        Option.to_result (J.to_float x)
          ~none:(Printf.sprintf "gauge \"%s\" must be a number" n))
  in
  let* histograms =
    each "histograms" (fun n x ->
        let field k =
          Option.to_result
            (Option.bind (J.member k x) J.to_float)
            ~none:(Printf.sprintf "histogram \"%s\": missing numeric \"%s\"" n k)
        in
        let* count = field "count" in
        let* sum = field "sum" in
        let* mn = field "min" in
        let* mx = field "max" in
        let* p50 = field "p50" in
        let* p90 = field "p90" in
        let* p99 = field "p99" in
        if not (Float.is_integer count && count >= 0.0) then
          Error (Printf.sprintf "histogram \"%s\": \"count\" must be a non-negative integer" n)
        else if count > 0.0 && not (mn <= p50 && p50 <= p90 && p90 <= p99 && p99 <= mx) then
          Error (Printf.sprintf "histogram \"%s\": percentiles out of order" n)
        else
          Ok { Metrics.count = int_of_float count; sum; min = mn; max = mx; p50; p90; p99 })
  in
  Ok { Metrics.counters; gauges; histograms }

(* Chrome trace_event well-formedness: a [traceEvents] list whose span
   events carry name/ph/pid/tid and non-negative microsecond ts/dur,
   listed in non-decreasing [ts] order, and properly nested per thread
   (two spans on one tid are either disjoint or one contains the other).
   Returns the span names seen, for [--expect-span]. *)
let validate_trace v =
  let* events =
    match J.member "traceEvents" v with
    | Some (J.List l) -> Ok l
    | _ -> Error "missing \"traceEvents\" list"
  in
  let str k e = match J.member k e with Some (J.String s) -> Some s | _ -> None in
  let num k e = Option.bind (J.member k e) J.to_float in
  let eps = 5e-3 (* µs: tolerance for float rounding of ts/dur *) in
  let rec check i last_ts stacks spans names = function
    | [] ->
      if spans = 0 then Error "trace contains no complete (ph=X) span events" else Ok names
    | e :: rest ->
      let where = Printf.sprintf "traceEvents[%d]" i in
      let* name =
        match str "name" e with Some n -> Ok n | None -> Error (where ^ ": missing \"name\"")
      in
      let* ph =
        match str "ph" e with Some p -> Ok p | None -> Error (where ^ ": missing \"ph\"")
      in
      (match ph with
      | "M" -> check (i + 1) last_ts stacks spans names rest
      | "X" ->
        let* ts =
          match num "ts" e with
          | Some t when t >= 0.0 -> Ok t
          | _ -> Error (where ^ ": \"ts\" must be a non-negative number")
        in
        let* dur =
          match num "dur" e with
          | Some d when d >= 0.0 -> Ok d
          | _ -> Error (where ^ ": \"dur\" must be a non-negative number")
        in
        let* tid =
          match J.member "tid" e with
          | Some (J.Int t) -> Ok t
          | _ -> Error (where ^ ": \"tid\" must be an integer")
        in
        let* () =
          if J.member "pid" e = None then Error (where ^ ": missing \"pid\"") else Ok ()
        in
        let* () =
          if ts +. eps < last_ts then
            Error (Printf.sprintf "%s: timestamps not sorted (%g after %g)" where ts last_ts)
          else Ok ()
        in
        let stop = ts +. dur in
        let stack = Option.value (List.assoc_opt tid stacks) ~default:[] in
        let rec pop = function top :: below when top <= ts +. eps -> pop below | s -> s in
        let stack = pop stack in
        let* () =
          match stack with
          | top :: _ when stop > top +. eps ->
            Error
              (Printf.sprintf "%s: span \"%s\" overlaps its enclosing span on tid %d" where
                 name tid)
          | _ -> Ok ()
        in
        let stacks = (tid, stop :: stack) :: List.remove_assoc tid stacks in
        check (i + 1) ts stacks (spans + 1) (name :: names) rest
      | other -> Error (Printf.sprintf "%s: unsupported phase \"%s\"" where other))
  in
  check 0 neg_infinity [] 0 [] events

let obs_trace_arg =
  let doc = "The trace file to read." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let obs_metrics_arg =
  let doc = "The metrics file to read." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let obs_json_arg =
  let doc = "Emit the snapshot as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let expect_span_arg =
  let doc = "Fail validation unless a span named $(docv) appears in the trace (repeatable)." in
  Arg.(value & opt_all string [] & info [ "expect-span" ] ~docv:"NAME" ~doc)

(* A metrics file's snapshot and a trace file's span names, each
   checked against its schema. *)
let read_snapshot file =
  let* v = parse_json_file file in
  Result.map_error (Printf.sprintf "%s: %s" file) (snapshot_of_json v)

let read_trace file =
  let* v = parse_json_file file in
  let* names = Result.map_error (Printf.sprintf "%s: %s" file) (validate_trace v) in
  Ok (v, names)

let run_obs_stats metrics_file json =
  ret_of
  @@
  let* snap =
    match metrics_file with None -> Ok (Metrics.snapshot ()) | Some file -> read_snapshot file
  in
  print_string (if json then Metrics.render_json snap else Metrics.render_text snap);
  Ok ()

(* The metrics half of [obs summary]: pool and serve health at a
   glance — worker/utilization/queue gauges first, then every
   histogram with its percentiles. *)
let summarize_metrics file =
  let* snap = read_snapshot file in
  let gauges = snap.Metrics.gauges in
  if gauges <> [] then begin
    Printf.printf "%-28s %14s\n" "gauge" "value";
    List.iter (fun (n, v) -> Printf.printf "%-28s %14.3f\n" n v) gauges
  end;
  if snap.Metrics.histograms <> [] then begin
    Printf.printf "%-28s %10s %14s %14s %14s\n" "histogram" "count" "p50" "p99" "max";
    List.iter
      (fun (n, h) ->
        Printf.printf "%-28s %10d %14.3f %14.3f %14.3f\n" n h.Metrics.count h.Metrics.p50
          h.Metrics.p99 h.Metrics.max)
      snap.Metrics.histograms
  end;
  Ok ()

let run_obs_summary trace_file metrics_file =
  ret_of
  @@
  let* () = match metrics_file with None -> Ok () | Some file -> summarize_metrics file in
  match trace_file with
  | None ->
    if metrics_file = None then Error "obs summary requires --trace FILE and/or --metrics FILE"
    else Ok ()
  | Some file ->
    let* v, _ = read_trace file in
    let events = match J.member "traceEvents" v with Some (J.List l) -> l | _ -> [] in
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun e ->
        match J.member "ph" e with
        | Some (J.String "X") ->
          let name = match J.member "name" e with Some (J.String n) -> n | _ -> "?" in
          let dur_ms =
            Option.value (Option.bind (J.member "dur" e) J.to_float) ~default:0.0 /. 1e3
          in
          let cpu_ms =
            Option.value
              (Option.bind (Option.bind (J.member "args" e) (J.member "cpu_ms")) J.to_float)
              ~default:0.0
          in
          let c, tot, mx, cpu =
            Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0.0, 0.0, 0.0)
          in
          Hashtbl.replace tbl name (c + 1, tot +. dur_ms, Float.max mx dur_ms, cpu +. cpu_ms)
        | _ -> ())
      events;
    let rows = Hashtbl.fold (fun n r acc -> (n, r) :: acc) tbl [] in
    let rows = List.sort (fun (_, (_, a, _, _)) (_, (_, b, _, _)) -> compare (b : float) a) rows in
    Printf.printf "%-28s %8s %12s %12s %12s %12s\n" "span" "count" "total ms" "mean ms" "max ms"
      "cpu ms";
    List.iter
      (fun (n, (c, tot, mx, cpu)) ->
        Printf.printf "%-28s %8d %12.3f %12.3f %12.3f %12.3f\n" n c tot (tot /. float_of_int c)
          mx cpu)
      rows;
    Ok ()

let run_obs_validate trace_file metrics_file expect =
  if trace_file = None && metrics_file = None then
    `Error (false, "obs validate needs --trace and/or --metrics")
  else
    let trace_res =
      match trace_file with
      | None -> Ok ()
      | Some file ->
        let* _, names = read_trace file in
        let missing = List.filter (fun n -> not (List.mem n names)) expect in
        if missing <> [] then
          Error
            (Printf.sprintf "%s: expected span(s) not found: %s" file (String.concat ", " missing))
        else begin
          Printf.printf "trace %s: OK (%d spans)\n" file (List.length names);
          Ok ()
        end
    in
    let metrics_res =
      match metrics_file with
      | None -> Ok ()
      | Some file ->
        let* snap = read_snapshot file in
        Printf.printf "metrics %s: OK (%d counters, %d gauges, %d histograms)\n" file
          (List.length snap.Metrics.counters)
          (List.length snap.Metrics.gauges)
          (List.length snap.Metrics.histograms);
        Ok ()
    in
    ret_of (Result.bind trace_res (fun () -> metrics_res))

let obs_stats_cmd =
  let doc =
    "Print a metrics snapshot: from a $(b,--metrics) file written by a traced run, or the live \
     registry of this process when no file is given."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run_obs_stats $ obs_metrics_arg $ obs_json_arg))

let obs_summary_cmd =
  let doc =
    "Aggregate observability artifacts: per-span wall/CPU totals from a $(b,--trace) file, \
     and gauge/histogram health (pool workers, utilization, queue depths, serve latency) from \
     a $(b,--metrics) file."
  in
  Cmd.v
    (Cmd.info "summary" ~doc)
    Term.(ret (const run_obs_summary $ obs_trace_arg $ obs_metrics_arg))

let obs_validate_cmd =
  let doc =
    "Check observability artifacts: the trace must be well-formed Chrome trace_event JSON \
     (sorted timestamps, proper per-thread span nesting) and the metrics file must match the \
     registry schema.  Exits non-zero on any violation."
  in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(ret (const run_obs_validate $ obs_trace_arg $ obs_metrics_arg $ expect_span_arg))

let obs_cmd =
  let doc = "Inspect and validate observability artifacts ($(b,--trace) / $(b,--metrics) files)." in
  Cmd.group (Cmd.info "obs" ~doc) [ obs_stats_cmd; obs_summary_cmd; obs_validate_cmd ]

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "multi-use-case NoC mapping (Murali et al., DATE 2006)" in
  let info = Cmd.info "nocmap" ~version:(Noc_util.Build_info.describe ()) ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          (List.map oneshot_cmd operations
          @ [
              experiments_cmd;
              generate_cmd;
              simulate_cmd;
              report_cmd;
              cache_cmd;
              serve_cmd;
              client_cmd;
              obs_cmd;
            ])))
