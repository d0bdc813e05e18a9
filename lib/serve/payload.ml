module J = Noc_export.Json
module Mesh = Noc_arch.Mesh
module Tracer = Noc_obs.Tracer

type outcome =
  | Design of Noc_core.Design_flow.t
  | Points of Noc_power.Design_space.point list
  | Lint of Noc_analysis.Analyzer.report
  | Certificate of Noc_analysis.Certify.t
  | Remapped of { old : Noc_core.Design_flow.t; remap : Noc_core.Remap.outcome }

let design d = Noc_export.Design_export.design_to_string d

let points_json points =
  let point p =
    let open Noc_power.Design_space in
    J.Obj
      [
        ("topology", J.String (match p.topology with Mesh.Mesh -> "mesh" | Mesh.Torus -> "torus"));
        ("slots", J.Int p.slots);
        ("freq_mhz", J.Float p.freq_mhz);
        ("switches", (match p.switches with Some s -> J.Int s | None -> J.Null));
        ("area_mm2", (match p.area_mm2 with Some a -> J.Float a | None -> J.Null));
        ("power_mw", (match p.power_mw with Some w -> J.Float w | None -> J.Null));
        ("start", J.String (match p.start with Warm -> "warm" | Cold -> "cold"));
      ]
  in
  J.Obj [ ("points", J.List (List.map point points)) ]

let points ps = J.to_string ~indent:2 (points_json ps)

(* An outcome's document and whether its payload ends in a newline.
   Every payload is that document at indent 2. *)
let document = function
  | Design d -> (Noc_export.Design_export.design d, false)
  | Points ps -> (points_json ps, false)
  | Lint report -> (Noc_analysis.Analyzer.to_json report, true)
  | Certificate cert -> (Noc_analysis.Certify.to_json cert, true)
  | Remapped { remap; _ } -> (Noc_export.Design_export.design remap.Noc_core.Remap.design, false)

(* The span around every payload write, with the bytes it wrote. *)
let traced_write ~bytes f =
  Tracer.with_span "payload.write" (fun () ->
      let r = f () in
      Tracer.add_arg "bytes" (Tracer.Int (bytes r));
      r)

let render outcome =
  traced_write ~bytes:String.length (fun () ->
      let v, newline = document outcome in
      let s = J.to_string ~indent:2 v in
      if newline then s ^ "\n" else s)

let output oc outcome =
  let start = pos_out oc in
  traced_write
    ~bytes:(fun () -> pos_out oc - start)
    (fun () ->
      let v, newline = document outcome in
      J.to_channel ~indent:2 oc v;
      if newline then output_char oc '\n')
