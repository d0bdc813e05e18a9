(** Multi-knob design-space exploration.

    Generalises the Fig 7(a) frequency sweep: the designer picks
    candidate frequencies, TDMA slot-table sizes and grid families, and
    gets every feasible design point with its NoC size, switch area and
    power — plus the Pareto-optimal subset over (area, power).  This is
    the "choose the optimum design point based on the objectives of the
    designer" step the paper leaves to the reader (§6.3).

    The sweep runs in frequency waves on the shared
    {!Noc_util.Domain_pool}: every (topology, slots) cell of one
    frequency is solved concurrently, and later waves {e warm-start}
    from the nearest already-solved neighbour (same topology, nearest
    slots, then nearest frequency).  Every point is one
    {!Noc_core.Mapping.map_design} growth search; a warm start only
    adds its [seeded] hook, which retries the neighbour's size with the
    neighbour's placement (routing only) before paying for a fresh
    placement search there.  It keeps the cold search's minimality —
    every mesh size below the neighbour's is still attempted — and
    degrades to the exact cold behaviour when the retry fails.  Warm-start scheduling depends only on earlier waves, never
    on timing, so the sweep result is independent of [jobs]. *)

type axes = {
  frequencies : Noc_util.Units.frequency list;
  slot_counts : int list;
  topologies : Noc_arch.Mesh.kind list;
}

val default_axes : axes
(** Frequencies 250/500/1000 MHz, 16/32/64 slots, mesh only. *)

type start =
  | Cold  (** full growth search (or a warm retry that fell back) *)
  | Warm  (** solved by the neighbour-seeded placement retry *)

type point = {
  freq_mhz : Noc_util.Units.frequency;
  slots : int;
  topology : Noc_arch.Mesh.kind;
  switches : int option;            (** [None] = infeasible *)
  area_mm2 : Noc_util.Units.area option;
  power_mw : float option;          (** design-point power *)
  start : start;                    (** which path produced the result *)
}

type seed
(** A solved point's reusable state (mesh dimensions and placement),
    opaque to callers; an array of them indexed like the point list
    carries warm starts from one sweep into the next. *)

val explore_seeded :
  ?axes:axes ->
  ?jobs:int ->
  ?warm:bool ->
  ?prune:bool ->
  ?inherited:seed option array ->
  config:Noc_arch.Noc_config.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  point list * seed option array
(** Like {!explore}, additionally returning the per-point seeds so a
    sweep over a spec {e family} can churn instead of restarting: pass
    one run's seeds as the next run's [inherited] (same [axes]!) and
    the first wave of the new sweep warm-starts from the previous
    spec's placements instead of running cold.  A seed whose placement
    no longer matches the new spec's core count is ignored, and a
    warm retry that fails degrades to the exact cold search, so the
    feasibility and switch counts of every point are unchanged —
    inheritance only saves work.  The seed array is positional
    ([topology-major, then slots, then frequency]); with different
    axes the warm starts would be taken from the wrong neighbourhood
    (still sound, just useless), so reuse arrays only across sweeps
    with identical axes. *)

val explore :
  ?axes:axes ->
  ?jobs:int ->
  ?warm:bool ->
  ?prune:bool ->
  config:Noc_arch.Noc_config.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  point list
(** Run the design flow at every axis combination (other knobs from
    [config]); points come out in a deterministic axis order
    (topology-major, then slots, then frequency, each ascending).
    [jobs] bounds the pool parallelism (default:
    {!Noc_util.Domain_pool.default_jobs}); [warm] (default [true])
    enables placement-seeded warm starts — [false] is the [--cold]
    escape hatch that forces every point through the full growth
    search.  [prune] (default [true]) is passed to each point's
    {!Noc_core.Mapping.map_design}, which skips the growth sizes that
    point's certificate rejects; [false] is the [--no-prune] escape
    hatch.  Warm/cold and
    pruned/unpruned all agree on the resulting points (pinned by the
    determinism tests). *)

val pareto : point list -> point list
(** Feasible points not dominated in (area, power): a point is dropped
    when another has area and power both no worse and one strictly
    better. *)

val pareto_flags : point list -> bool array
(** Front membership by position in the input list — structural, so it
    keeps working when callers rebuild or reorder point values. *)

val print : point list -> unit
(** Render the space (and mark the Pareto members) as a table. *)
