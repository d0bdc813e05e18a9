module Sp = Noc_core.Spec_parser
module DF = Noc_core.Design_flow
module Feasibility = Noc_core.Feasibility
module Config = Noc_arch.Noc_config
module Flow = Noc_traffic.Flow
module D = Diagnostic

type analysis = {
  diagnostics : D.t list;
  spec : DF.spec option;
}

let diagnostic (f : Sp.finding) =
  let severity = match f.Sp.severity with `Error -> D.Error | `Warning -> D.Warning in
  D.v ?line:f.Sp.at ~pass:f.Sp.pass severity f.Sp.text

let check doc =
  let findings, spec = Sp.check doc in
  { diagnostics = List.map diagnostic findings; spec }

(* First source line declaring a flow on this ordered pair (compound
   use-cases have no lines of their own; their flows all come from a
   base declaration of the same pair). *)
let flow_line doc ~src ~dst =
  List.fold_left
    (fun acc (line, ev) ->
      match (acc, ev) with
      | None, Sp.Flow_decl f when f.Flow.src = src && f.Flow.dst = dst -> Some line
      | _ -> acc)
    None doc.Sp.events

let feasibility ?(config = Config.default) ~doc spec =
  match Config.validate config with
  | Error m -> ([ D.vf ~pass:"config" Error "invalid configuration: %s" m ], None)
  | Ok () -> (
    match DF.expand spec with
    | exception Invalid_argument msg ->
      ([ D.vf ~pass:"compound" Error "cannot expand parallel modes: %s" msg ], None)
    | all, _compounds, groups ->
      let cert = Feasibility.certify ~config ~groups all in
      let imps =
        List.map
          (fun (i : Feasibility.impossibility) ->
            let line = flow_line doc ~src:i.Feasibility.src ~dst:i.Feasibility.dst in
            D.v ?line ~pass:"infeasible-flow" Error i.Feasibility.reason)
          cert.Feasibility.impossible
      in
      let summary =
        if imps <> [] then []
        else
          match Feasibility.first_admitted cert with
          | None ->
            [
              D.vf ~pass:"infeasible-design" Error
                "no mesh size up to %dx%d satisfies the static lower bounds"
                cert.Feasibility.max_dim cert.Feasibility.max_dim;
            ]
          | Some (1, 1) -> []
          | Some (w, h) ->
            [
              D.vf ~pass:"certified-start" Info
                "certified lower bound: the mesh growth search can start at %dx%d" w h;
            ]
      in
      (imps @ summary, Some cert))
