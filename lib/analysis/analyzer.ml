module Sp = Noc_core.Spec_parser
module DF = Noc_core.Design_flow
module Feasibility = Noc_core.Feasibility
module Config = Noc_arch.Noc_config
module Json = Noc_export.Json
module D = Diagnostic

type report = {
  diagnostics : D.t list;
  certificate : Feasibility.t option;
}

let analyze_doc ?(config = Config.default) ?(deep = false) doc =
  let { Spec_lint.diagnostics; spec } = Spec_lint.check doc in
  match spec with
  | None -> { diagnostics; certificate = None }
  | Some spec ->
    let feas, certificate = Spec_lint.feasibility ~config ~doc spec in
    let design =
      if not deep then []
      else
        match DF.run ~config spec with
        | Ok d ->
          Design_lint.check d.DF.mapping d.DF.all_use_cases
          @ Certify.to_diagnostics
              (Certify.certify ~name:spec.DF.name d.DF.mapping d.DF.all_use_cases)
        | Error msg -> [ D.vf ~pass:"mapping" Error "%s" msg ]
    in
    {
      diagnostics = List.stable_sort D.compare (diagnostics @ feas) @ design;
      certificate;
    }

(* Programmatic specs go through the same located pipeline by rendering
   to text first: one code path, and the reported lines are valid for
   the rendered form. *)
let analyze_spec ?config ?deep spec =
  analyze_doc ?config ?deep (Sp.parse_doc ~name:spec.DF.name (Sp.to_text spec))

let exit_code report = D.exit_code report.diagnostics

let render_text report =
  let buf = Buffer.create 256 in
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "%a@." D.pp d))
    report.diagnostics;
  let count sev =
    List.length (List.filter (fun d -> d.D.severity = sev) report.diagnostics)
  in
  Buffer.add_string buf
    (Printf.sprintf "%d error(s), %d warning(s), %d info\n" (count D.Error)
       (count D.Warning) (count D.Info));
  Buffer.contents buf

let json_of_certificate (c : Feasibility.t) =
  Json.Obj
    [
      ("cores", Json.Int c.Feasibility.cores);
      ("nis_per_switch", Json.Int c.Feasibility.cap);
      ("slots", Json.Int c.Feasibility.slots);
      ("max_dim", Json.Int c.Feasibility.max_dim);
      ( "impossible",
        Json.List
          (List.map
             (fun (i : Feasibility.impossibility) ->
               Json.Obj
                 [
                   ("group", Json.Int i.Feasibility.group);
                   ("src", Json.Int i.Feasibility.src);
                   ("dst", Json.Int i.Feasibility.dst);
                   ("reason", Json.String i.Feasibility.reason);
                 ])
             c.Feasibility.impossible) );
      ( "groups",
        Json.List
          (List.map
             (fun (g : Feasibility.group_cert) ->
               Json.Obj
                 [
                   ("group", Json.Int g.Feasibility.group);
                   ("aggregate_slots", Json.Int g.Feasibility.aggregate);
                   ( "cut",
                     Json.List
                       (List.map
                          (fun (d : Feasibility.demand) ->
                            Json.Obj
                              [
                                ("core", Json.Int d.Feasibility.core);
                                ("egress", Json.Bool d.Feasibility.egress);
                                ("slots", Json.Int d.Feasibility.slots);
                              ])
                          g.Feasibility.cut) );
                 ])
             c.Feasibility.group_certs) );
      ( "first_admitted",
        match Feasibility.first_admitted c with
        | Some (w, h) -> Json.Obj [ ("width", Json.Int w); ("height", Json.Int h) ]
        | None -> Json.Null );
    ]

let to_json report =
  Json.Obj
    [
      ("diagnostics", Json.List (List.map D.to_json report.diagnostics));
      ( "certificate",
        match report.certificate with
        | Some c -> json_of_certificate c
        | None -> Json.Null );
      ("exit_code", Json.Int (exit_code report));
    ]
