(** Canonical result payloads.

    An executed operation yields a typed {!outcome}; {!render} and
    {!output} turn it into the {e exact bytes} that both the one-shot
    CLI writes ([nocmap map --json FILE], [explore --json FILE],
    [lint --json], [certify --json], [remap --json FILE]) and the
    daemon returns in its [payload] field.  Both front ends obtain the outcome from
    {!Service.run}, so "served response == one-shot CLI output" holds
    by construction; the serve tests and the CI [serve-correctness] job
    pin it as well. *)

type outcome =
  | Design of Noc_core.Design_flow.t  (** [map] *)
  | Points of Noc_power.Design_space.point list  (** [explore] *)
  | Lint of Noc_analysis.Analyzer.report  (** [lint] *)
  | Certificate of Noc_analysis.Certify.t  (** [certify] *)
  | Remapped of { old : Noc_core.Design_flow.t; remap : Noc_core.Remap.outcome }
      (** [remap]: the design of the old revision and the churn onto
          the new one *)

val render : outcome -> string
(** The payload bytes of an outcome, as the daemon sends them.  A remap
    renders its new design; lint reports and certificates end in a
    newline, like the CLI's [print_endline] of them.  Traced as a
    [payload.write] span with a [bytes] argument. *)

val output : out_channel -> outcome -> unit
(** [output oc o] writes exactly [render o] to [oc] (what the CLI's
    [--json] files and JSON stdout get): the same {!Noc_export.Json}
    writer on the same document, streamed in chunks instead of built
    as one string.  Same [payload.write] span; does not flush [oc]. *)

val design : Noc_core.Design_flow.t -> string
(** A completed design as pretty-printed JSON
    ({!Noc_export.Design_export.design_to_string}). *)

val points : Noc_power.Design_space.point list -> string
(** A design-space sweep's points as pretty-printed JSON (what
    [nocmap explore --json] writes). *)
