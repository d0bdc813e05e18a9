(** Pre-mapping passes: spec well-formedness and static feasibility.

    {!check} renders the findings of {!Noc_core.Spec_parser.check} —
    the same walk [Spec_parser.parse] resolves a spec with — one to one
    as diagnostics, and passes on its best-effort spec so the
    feasibility passes can run on a broken file.  The well-formedness
    pass ids are the finding ids listed there.  A spec that the parser
    accepts produces no error-severity diagnostic from {!check}, and a
    spec it rejects produces one on the line the parser names.

    Feasibility passes ({!feasibility}): [infeasible-flow] (a flow no
    mesh of any size can carry, with its declaring line),
    [infeasible-design] (certificate rejects every size up to the
    growth cap), [certified-start] (info: where the pruned growth
    search begins), plus [config]/[compound] for inputs the certifier
    cannot accept. *)

type analysis = {
  diagnostics : Diagnostic.t list;  (** one per finding, in walk order *)
  spec : Noc_core.Design_flow.spec option;
      (** best-effort resolution; [None] when cores or use-cases are
          missing entirely *)
}

val check : Noc_core.Spec_parser.doc -> analysis

val feasibility :
  ?config:Noc_arch.Noc_config.t ->
  doc:Noc_core.Spec_parser.doc ->
  Noc_core.Design_flow.spec ->
  Diagnostic.t list * Noc_core.Feasibility.t option
(** Certify the spec (after compound generation and grouping, exactly
    as the mapper sees it) and render the certificate's verdicts as
    diagnostics; flow-level impossibilities point at the declaring
    spec line. *)

val flow_line : Noc_core.Spec_parser.doc -> src:int -> dst:int -> int option
(** First source line declaring a flow on this ordered pair. *)
