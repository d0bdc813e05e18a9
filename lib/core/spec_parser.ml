module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case

type error = {
  line : int;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Parsing is split in two: [parse_doc] keeps every declaration with
   its 1-based source line and never aborts (unparseable lines become
   [Bad] events); [check] walks the events once and turns every
   semantic problem into a located finding, so the lint passes can
   diagnose a broken spec as a whole and [resolve] reports its first
   error. *)

type event =
  | Name of string
  | Cores of int
  | Use_case_decl of string
  | Flow_decl of Flow.t
  | Parallel of string list
  | Smooth of string * string
  | Bad of string

type doc = {
  doc_name : string;  (** fallback design name (e.g. the file name) *)
  events : (int * event) list;
}

let syntax line fmt = Printf.ksprintf (fun message -> (line, Bad message)) fmt

let int_of ~line what s k =
  match int_of_string_opt s with
  | Some v -> k v
  | None -> syntax line "%s: expected an integer, got '%s'" what s

let parse_flow ~line rest =
  match rest with
  | src :: "->" :: dst :: "bw" :: bw :: opts ->
    int_of ~line "flow source" src (fun src ->
        int_of ~line "flow destination" dst (fun dst ->
            match float_of_string_opt bw with
            | None -> syntax line "bandwidth: expected a number, got '%s'" bw
            | Some b when not (Float.is_finite b) ->
              syntax line "bandwidth: expected a finite number, got '%s'" bw
            | Some bw ->
              let rec options latency_ns service = function
                | [] -> (line, Flow_decl (Flow.v ?latency_ns ~service ~src ~dst bw))
                | "lat" :: v :: rest -> (
                  match float_of_string_opt v with
                  | Some l when not (Float.is_nan l) -> options (Some l) service rest
                  | _ -> syntax line "latency: expected a number, got '%s'" v)
                | "be" :: rest -> options latency_ns Flow.Best_effort rest
                | tok :: _ -> syntax line "unknown flow option '%s'" tok
              in
              options None Flow.Guaranteed opts))
  | _ -> syntax line "expected: flow SRC -> DST bw MBPS [lat NS] [be]"

let parse_doc ~name text =
  let events = ref [] in
  let push ev = events := ev :: !events in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      match tokens (strip_comment raw) with
      | [] -> ()
      | "name" :: rest when rest <> [] -> push (line, Name (String.concat " " rest))
      | [ "cores"; n ] -> push (int_of ~line "cores" n (fun v -> (line, Cores v)))
      | [ "use-case"; name ] -> push (line, Use_case_decl name)
      | "flow" :: rest -> push (parse_flow ~line rest)
      | "parallel" :: names -> push (line, Parallel names)
      | [ "smooth"; a; b ] -> push (line, Smooth (a, b))
      | tok :: _ -> push (syntax line "unknown directive '%s'" tok))
    (String.split_on_char '\n' text);
  { doc_name = name; events = List.rev !events }

(* --- resolution ------------------------------------------------------------ *)

type finding = {
  pass : string;
  severity : [ `Error | `Warning ];
  at : int option;
  text : string;
}

(* A declared use-case and the flows the walk accepted into it. *)
type use_case = {
  id : int;  (* declaration order *)
  decl_line : int;
  uc_name : string;
  mutable declared : int;  (* flows declared in it *)
  mutable accepted : Flow.t list;  (* reversed *)
}

(* One lenient walk: every problem becomes a finding instead of
   aborting, and the spec is still assembled from the declarations
   that survive, so a broken file can be analyzed as a whole. *)
let check doc =
  let findings = ref [] in
  let report ?line ~pass severity fmt =
    Printf.ksprintf (fun text -> findings := { pass; severity; at = line; text } :: !findings) fmt
  in
  let name = ref doc.doc_name in
  let cores = ref None in
  let missing_cores_reported = ref false in
  let by_name = Hashtbl.create 8 in
  let ucs = ref [] (* reversed *) in
  let current = ref None in
  let parallel_decls = ref [] (* (line, names), reversed *) in
  let smooth_decls = ref [] (* (line, a, b), reversed *) in
  let flow_decl ~line u (f : Flow.t) =
    let ok = ref true in
    let err pass fmt =
      ok := false;
      report ~line ~pass `Error fmt
    in
    if f.src = f.dst then err "self-flow" "flow %d -> %d connects a core to itself" f.src f.dst;
    if f.bandwidth <= 0.0 then
      err "zero-bandwidth" "flow %d -> %d requests %.1f MB/s — it reserves nothing" f.src
        f.dst f.bandwidth;
    (match !cores with
    | Some c ->
      if f.src < 0 || f.src >= c || f.dst < 0 || f.dst >= c then
        err "flow-range" "flow %d -> %d references a core outside 0..%d" f.src f.dst (c - 1)
    | None ->
      if not !missing_cores_reported then begin
        missing_cores_reported := true;
        report ~line ~pass:"missing-cores" `Error "declare 'cores N' before flows"
      end);
    if f.latency_ns <= 0.0 then
      err "nonpositive-latency" "flow %d -> %d has a non-positive latency bound" f.src f.dst;
    if (not (Flow.is_guaranteed f)) && f.latency_ns <> infinity then
      err "be-latency"
        "flow %d -> %d is best-effort but carries a latency bound (no mechanism honours it)"
        f.src f.dst;
    u.declared <- u.declared + 1;
    if !ok then u.accepted <- f :: u.accepted
  in
  List.iter
    (fun (line, ev) ->
      match ev with
      | Bad message -> report ~line ~pass:"syntax" `Error "%s" message
      | Name n -> name := n
      | Cores v ->
        if v < 2 then report ~line ~pass:"cores" `Error "a SoC needs at least two cores, not %d" v
        else if !cores <> None then report ~line ~pass:"cores" `Error "duplicate 'cores' directive"
        else cores := Some v
      | Use_case_decl n -> (
        match Hashtbl.find_opt by_name n with
        | Some u ->
          report ~line ~pass:"duplicate-use-case" `Error
            "duplicate use-case '%s' (first declared on line %d)" n u.decl_line;
          current := Some u (* merge flows into the original *)
        | None ->
          let u =
            {
              id = Hashtbl.length by_name;
              decl_line = line;
              uc_name = n;
              declared = 0;
              accepted = [];
            }
          in
          Hashtbl.add by_name n u;
          ucs := u :: !ucs;
          current := Some u)
      | Flow_decl f -> (
        match !current with
        | None -> report ~line ~pass:"orphan-flow" `Error "flow outside any use-case"
        | Some u -> flow_decl ~line u f)
      | Parallel names -> parallel_decls := (line, names) :: !parallel_decls
      | Smooth (a, b) -> smooth_decls := (line, a, b) :: !smooth_decls)
    doc.events;
  (* The walk reports in line order; the checks below report after it. *)
  let walked = List.rev !findings in
  findings := [];
  let ucs = List.rev !ucs in
  (* Resolve one referenced name; [None] drops it with a finding. *)
  let reference ~line ~where n =
    match Hashtbl.find_opt by_name n with
    | None ->
      report ~line ~pass:"dangling-ref" `Error "unknown use-case '%s' in '%s'" n where;
      None
    | Some u ->
      if u.decl_line > line then
        report ~line ~pass:"forward-ref" `Error
          "use-case '%s' is declared on line %d, after this '%s' reference" n u.decl_line where;
      Some u.id
  in
  let parallel =
    List.rev_map
      (fun (line, names) ->
        if List.length names < 2 then begin
          report ~line ~pass:"parallel-arity" `Error "'parallel' needs at least two use-cases";
          (line, [])
        end
        else begin
          let ids = List.filter_map (reference ~line ~where:"parallel") names in
          let distinct =
            List.fold_left (fun acc i -> if List.mem i acc then acc else i :: acc) [] ids
            |> List.rev
          in
          if List.length distinct < List.length ids then
            report ~line ~pass:"duplicate-ref" `Error
              "a use-case appears twice in one 'parallel' set";
          (line, if List.length distinct >= 2 then distinct else [])
        end)
      !parallel_decls
  in
  let seen_pairs = ref [] in
  let smooth =
    List.rev_map
      (fun (line, a, b) ->
        match (reference ~line ~where:"smooth" a, reference ~line ~where:"smooth" b) with
        | Some ia, Some ib when ia = ib ->
          report ~line ~pass:"self-smooth" `Error "'smooth %s %s' pairs a use-case with itself" a b;
          None
        | Some ia, Some ib ->
          let key = (min ia ib, max ia ib) in
          (* A repeated pair stays in the spec (the switching graph
             holds each edge once); it only earns a warning. *)
          if List.mem key !seen_pairs then
            report ~line ~pass:"duplicate-ref" `Warning
              "smooth pair '%s' / '%s' is already required" a b
          else begin
            seen_pairs := key :: !seen_pairs;
            (* Inside one compound the pair is smooth by construction
               (paper §4): members of a parallel set are linked to the
               compound use-case automatically. *)
            List.iter
              (fun (pline, ids) ->
                if List.mem ia ids && List.mem ib ids then
                  report ~line ~pass:"redundant-smooth" `Warning
                    "smooth '%s' '%s' is already implied by the 'parallel' set on line %d"
                    a b pline)
              parallel
          end;
          Some (ia, ib)
        | _ -> None)
      !smooth_decls
  in
  List.iter
    (fun u ->
      if u.accepted = [] then
        report ~line:u.decl_line ~pass:"unreachable-use-case" `Warning
          "use-case '%s' declares no (valid) traffic: it constrains nothing" u.uc_name)
    ucs;
  let spec =
    match (!cores, ucs) with
    | None, _ ->
      if not !missing_cores_reported then
        report ~pass:"missing-cores" `Error "missing 'cores' directive";
      None
    | _, [] ->
      report ~pass:"no-use-cases" `Error "no use-cases declared";
      None
    | Some cores, _ ->
      (* Flows accepted before 'cores' was declared were never
         range-checked. *)
      let use_case u =
        List.fold_left
          (fun acc f -> if Result.is_ok (Flow.validate ~cores f) then f :: acc else acc)
          [] u.accepted
        |> Use_case.create ~id:u.id ~name:u.uc_name ~cores
      in
      Some
        {
          Design_flow.name = !name;
          use_cases = List.map use_case ucs;
          parallel = List.filter (fun ids -> ids <> []) (List.map snd parallel);
          smooth = List.filter_map Fun.id smooth;
        }
  in
  let resolved = List.rev !findings in
  findings := [];
  (* Duplicate flows.  [Use_case.create] merges them, so a use-case
     that kept every flow it declared has none, and only the flows of
     the others are replayed: a table of every flow of a large spec
     cost more than all the other checks of the walk.  Each warning
     joins the walk's findings after the others of its line. *)
  let replay =
    Array.of_list
      (match spec with
      | Some s ->
        List.map2 (fun u uc -> u.declared <> List.length uc.Use_case.flows) ucs s.use_cases
      | None -> List.map (fun _ -> true) ucs)
  in
  if Array.exists Fun.id replay then begin
    let seen = Hashtbl.create 16 in
    let current = ref None in
    List.iter
      (fun (line, ev) ->
        match (ev, !current) with
        | Use_case_decl n, _ -> current := Hashtbl.find_opt by_name n
        | Flow_decl f, Some u when replay.(u.id) ->
          let key = (u.id, f.src, f.dst, f.service) in
          if Hashtbl.mem seen key then
            report ~line ~pass:"duplicate-flow" `Warning
              "use-case '%s' already has a %s flow %d -> %d: the parser merges them (bandwidths \
               sum, latencies min)"
              u.uc_name
              (if Flow.is_guaranteed f then "guaranteed" else "best-effort")
              f.src f.dst
          else Hashtbl.add seen key ()
        | _ -> ())
      doc.events
  end;
  (List.merge (fun a b -> compare a.at b.at) walked (List.rev !findings) @ resolved, spec)

(* The error [lint] lists first: the lowest line, unlocated last, then
   by check and text. *)
let resolve doc =
  let findings, spec = check doc in
  let key f = (Option.value f.at ~default:max_int, f.pass, f.text) in
  match List.filter (fun f -> f.severity = `Error) findings with
  | [] -> Ok (Option.get spec) (* no spec comes with an error finding *)
  | errors ->
    let f = List.hd (List.sort (fun a b -> compare (key a) (key b)) errors) in
    Error { line = Option.value f.at ~default:0; message = f.text }

let parse ~name text =
  if Noc_obs.Tracer.enabled () then
    Noc_obs.Tracer.with_span ~cat:"spec"
      ~args:[ ("bytes", Noc_obs.Tracer.Int (String.length text)) ]
      "spec_parser.parse"
      (fun () -> resolve (parse_doc ~name text))
  else resolve (parse_doc ~name text)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
    let name = Filename.remove_extension (Filename.basename path) in
    parse ~name text
  | exception Sys_error msg -> Error { line = 0; message = msg }

(* Shortest decimal form that parses back to the exact float: specs
   written by [to_text] must survive the round-trip bit-for-bit (six
   significant digits lose up to ~1e-3 of aggregate bandwidth over a
   large use-case). *)
let float_repr x =
  let six = Printf.sprintf "%.6g" x in
  if float_of_string six = x then six
  else
    let twelve = Printf.sprintf "%.12g" x in
    if float_of_string twelve = x then twelve else Printf.sprintf "%.17g" x

let to_text (spec : Design_flow.spec) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "name %s\n" spec.Design_flow.name);
  (match spec.Design_flow.use_cases with
  | [] -> ()
  | first :: _ -> Buffer.add_string buf (Printf.sprintf "cores %d\n" first.Use_case.cores));
  let name_of id = (List.nth spec.Design_flow.use_cases id).Use_case.name in
  List.iter
    (fun u ->
      Buffer.add_string buf (Printf.sprintf "\nuse-case %s\n" u.Use_case.name);
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "  flow %d -> %d bw %s%s%s\n" f.Flow.src f.Flow.dst
               (float_repr f.Flow.bandwidth)
               (if f.Flow.latency_ns <> infinity then " lat " ^ float_repr f.Flow.latency_ns
                else "")
               (if Flow.is_guaranteed f then "" else " be")))
        u.Use_case.flows)
    spec.Design_flow.use_cases;
  if spec.Design_flow.parallel <> [] then Buffer.add_char buf '\n';
  List.iter
    (fun set ->
      Buffer.add_string buf
        (Printf.sprintf "parallel %s\n" (String.concat " " (List.map name_of set))))
    spec.Design_flow.parallel;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "smooth %s %s\n" (name_of a) (name_of b)))
    spec.Design_flow.smooth;
  Buffer.contents buf
