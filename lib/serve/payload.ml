module J = Noc_export.Json
module Mesh = Noc_arch.Mesh

type outcome =
  | Design of Noc_core.Design_flow.t
  | Points of Noc_power.Design_space.point list
  | Lint of Noc_analysis.Analyzer.report
  | Certificate of Noc_analysis.Certify.t
  | Remapped of { old : Noc_core.Design_flow.t; remap : Noc_core.Remap.outcome }

let design d = Noc_export.Design_export.design_to_string d

let points points =
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
  J.to_string ~indent:2 (J.Obj [ ("points", J.List (List.map point points)) ])

let render = function
  | Design d -> design d
  | Points ps -> points ps
  | Lint report -> Noc_analysis.Analyzer.render_json report ^ "\n"
  | Certificate cert -> J.to_string ~indent:2 (Noc_analysis.Certify.to_json cert) ^ "\n"
  | Remapped { remap; _ } -> design remap.Noc_core.Remap.design
