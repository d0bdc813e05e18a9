(* The strict resolver that [Noc_core.Spec_parser] replaced, verbatim:
   it replays a document's events and aborts on the first offending
   declaration.  The shipped resolver walks the events once,
   leniently, and reports the earliest error finding instead; the
   tests pin the two to the same specs and the same error lines. *)

module Flow = Noc_traffic.Flow
module Use_case = Noc_traffic.Use_case
module Design_flow = Noc_core.Design_flow
open Noc_core.Spec_parser

exception Parse of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse { line; message })) fmt

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

let parse ~name text = resolve (parse_doc ~name text)
