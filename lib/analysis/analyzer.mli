(** The pass manager behind [nocmap lint].

    Runs the spec well-formedness passes ({!Spec_lint.check}), the
    feasibility passes ({!Spec_lint.feasibility}) and — in deep mode —
    the post-mapping design passes ({!Design_lint.check}) plus the
    independent certificate checker ({!Certify}) over one document,
    and renders the combined findings as text or JSON. *)

type report = {
  diagnostics : Diagnostic.t list;
      (** located diagnostics in source order, design passes last *)
  certificate : Noc_core.Feasibility.t option;
      (** present whenever the feasibility passes could run *)
}

val analyze_doc :
  ?config:Noc_arch.Noc_config.t -> ?deep:bool -> Noc_core.Spec_parser.doc -> report
(** Analyze a located document.  [deep] (default [false]) additionally
    runs the full design flow, the post-mapping passes and the
    {!Certify} checker on the result; a mapping failure surfaces as a
    [mapping] error, certificate findings as [certify-*] errors. *)

val analyze_spec :
  ?config:Noc_arch.Noc_config.t -> ?deep:bool -> Noc_core.Design_flow.spec -> report
(** Analyze a programmatic spec through the same pipeline (rendered
    with {!Noc_core.Spec_parser.to_text}, so lines refer to the
    rendered form). *)

val exit_code : report -> int
(** 2 on any error, 1 on warnings only, 0 otherwise. *)

val render_text : report -> string
(** One [pp]'d line per diagnostic plus a severity tally. *)

val to_json : report -> Noc_export.Json.t
(** [{"diagnostics": [...], "certificate": {...}|null, "exit_code": n}]. *)
