(** The complete multi-use-case design flow (paper Figure 3).

    Phase 1: compound use-cases are generated for the parallel modes
    (PUC input).  Phase 2: the switching graph is built from the
    smooth-switching pairs (SUC input) plus the automatic
    compound-member edges, and Algorithm 1 groups the use-cases.
    Phase 3: unified mapping and NoC configuration (Algorithm 2), with
    optional annealing refinement.  Phase 4: analytic verification of
    every guaranteed-throughput connection. *)

type spec = {
  name : string;
  use_cases : Noc_traffic.Use_case.t list;
      (** base use-cases; ids must equal list positions *)
  parallel : int list list;
      (** PUC: sets of base use-case ids that can run in parallel *)
  smooth : (int * int) list;
      (** SUC: pairs of use-case ids requiring smooth switching *)
}

type t = {
  spec : spec;
  all_use_cases : Noc_traffic.Use_case.t list;
      (** base use-cases followed by generated compounds *)
  compounds : Compound.t list;
  groups : int list list;     (** Algorithm 1 output *)
  mapping : Mapping.t;
  report : Verify.report;     (** phase-4 analytic verification *)
  refinement : Refine.outcome option;  (** present when refinement ran *)
}

val expand : spec -> Noc_traffic.Use_case.t list * Compound.t list * int list list
(** Phases 1 + 2 only: the full use-case list (base + generated
    compounds), the compounds, and the switching-aware use-case groups
    — exactly what phase 3 maps.  Exposed for the static analyzer,
    which certifies feasibility of the same inputs. *)

val package :
  ?refinement:Refine.outcome ->
  spec:spec ->
  all_use_cases:Noc_traffic.Use_case.t list ->
  compounds:Compound.t list ->
  groups:int list list ->
  report:Verify.report ->
  Mapping.t ->
  t
(** [assemble] with a caller-supplied phase-4 report.  The incremental
    remapper packages stitched designs with a spliced report: fresh
    checks for re-routed components ({!Verify.verify} [~only]), the
    old design's violations inherited (ids renumbered) for retained
    components, whose check inputs are byte-identical. *)

val assemble :
  ?refinement:Refine.outcome ->
  spec:spec ->
  all_use_cases:Noc_traffic.Use_case.t list ->
  compounds:Compound.t list ->
  groups:int list list ->
  Mapping.t ->
  t
(** Package a finished mapping as a design: runs the full phase-4
    analytic verification and records its report.  [run] is [expand] +
    phase 3 + [assemble]; the incremental remapper ({!Remap}) uses the
    same door for its whole-problem fallback paths and [package] with
    a spliced report for stitched designs. *)

val run :
  ?config:Noc_arch.Noc_config.t ->
  ?prune:bool ->
  ?refine:bool ->
  spec ->
  (t, string) result
(** Run all phases.  [prune] (default true) skips mesh sizes whose {!Feasibility} certificate proves them
    infeasible — same result, fewer attempts.  [refine] (default
    false) additionally runs the simulated-annealing placement
    refinement.  Fails with a readable message when no mesh up to the growth
    cap maps the design. *)

val switch_count : t -> int
(** Switches in the designed NoC (the §6.2 metric). *)

val verified : t -> bool
(** Did the phase-4 analytic verification pass? *)

val spec_of_use_cases :
  name:string -> Noc_traffic.Use_case.t list -> spec
(** Convenience: a spec with no parallel modes and no smooth-switching
    constraints (every use-case is its own group). *)

val reconfiguration : t -> Reconfig.cost list
(** Switching costs between every unordered use-case pair of the
    design (see {!Reconfig.analyze}). *)

val pp_summary : Format.formatter -> t -> unit
