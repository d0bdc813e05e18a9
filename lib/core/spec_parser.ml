module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case

type error = {
  line : int;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse { line; message })) fmt

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
   [Bad] events), so the lint passes can diagnose a broken spec as a
   whole; [resolve] replays the events in order with the original
   semantic checks, so [parse] still reports the first error exactly
   where the one-pass parser did. *)

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

(* Mutable resolution state: the spec is assembled use-case by
   use-case, exactly as the original one-pass parser did. *)
type state = {
  mutable name : string;
  mutable cores : int option;
  mutable order : string list;                    (* use-case names, reversed *)
  flows : (string, Flow.t list) Hashtbl.t;        (* per use-case, reversed *)
  mutable parallel : string list list;            (* reversed *)
  mutable smooth : (string * string) list;        (* reversed *)
  mutable current : string option;
}

let uc_id ~line st name =
  let order = List.rev st.order in
  let rec find i = function
    | [] -> fail line "unknown use-case '%s'" name
    | u :: _ when u = name -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 order

let resolve_event st (line, ev) =
  match ev with
  | Bad message -> raise (Parse { line; message })
  | Name n -> st.name <- n
  | Cores v ->
    if v < 2 then fail line "a SoC needs at least two cores";
    if st.cores <> None then fail line "duplicate 'cores' directive";
    st.cores <- Some v
  | Use_case_decl name ->
    if List.mem name st.order then fail line "duplicate use-case '%s'" name;
    st.order <- name :: st.order;
    Hashtbl.replace st.flows name [];
    st.current <- Some name
  | Flow_decl flow ->
    let uc =
      match st.current with
      | Some u -> u
      | None -> fail line "flow outside any use-case"
    in
    (match st.cores with
    | Some cores -> (
      match Flow.validate ~cores flow with
      | Ok () -> ()
      | Error msg -> fail line "%s" msg)
    | None -> fail line "declare 'cores N' before flows");
    let cur = Option.value (Hashtbl.find_opt st.flows uc) ~default:[] in
    Hashtbl.replace st.flows uc (flow :: cur)
  | Parallel names ->
    if List.length names < 2 then fail line "'parallel' needs at least two use-cases";
    List.iter (fun n -> ignore (uc_id ~line st n)) names;
    if List.length (List.sort_uniq compare names) < List.length names then
      fail line "a use-case appears twice in one 'parallel' set";
    st.parallel <- names :: st.parallel
  | Smooth (a, b) ->
    ignore (uc_id ~line st a);
    ignore (uc_id ~line st b);
    if a = b then fail line "'smooth %s %s' pairs a use-case with itself" a b;
    st.smooth <- (a, b) :: st.smooth

let resolve doc =
  let st =
    {
      name = doc.doc_name;
      cores = None;
      order = [];
      flows = Hashtbl.create 8;
      parallel = [];
      smooth = [];
      current = None;
    }
  in
  try
    List.iter (resolve_event st) doc.events;
    let cores =
      match st.cores with Some c -> c | None -> fail 0 "missing 'cores' directive"
    in
    let order = List.rev st.order in
    if order = [] then fail 0 "no use-cases declared";
    let use_cases =
      List.mapi
        (fun id uc_name ->
          let flows = List.rev (Option.value (Hashtbl.find_opt st.flows uc_name) ~default:[]) in
          Use_case.create ~id ~name:uc_name ~cores flows)
        order
    in
    let id_of n = uc_id ~line:0 st n in
    Ok
      {
        Design_flow.name = st.name;
        use_cases;
        parallel = List.rev_map (List.map id_of) st.parallel;
        smooth = List.rev_map (fun (a, b) -> (id_of a, id_of b)) st.smooth;
      }
  with
  | Parse e -> Error e
  | Invalid_argument msg -> Error { line = 0; message = msg }

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
