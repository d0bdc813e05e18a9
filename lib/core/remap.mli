(** Incremental remapping under use-case churn.

    Production SoCs gain, lose and retune use-cases across firmware
    revisions; recomputing the whole design for every spec delta pays
    the full {!Mapping.map_design} cost again even though most of the
    switching graph is untouched.  This module re-maps only the
    affected switching-graph components and keeps every unaffected
    group's configuration byte-identical to the previous design.

    {2 Semantics}

    [remap ~old spec] is a {e deterministic function of the old design
    and the new spec} (not of the search path taken to produce [old]).
    It tries, in order:

    + {b Reused} — the new spec's groups all match old groups by
      content: the old mapping is re-packaged (use-case ids renumbered)
      with no routing work at all.
    + {b Delta} — the mesh and core placement are retained; matched
      ("clean") groups keep their routes and slot tables byte-for-byte
      (rebuilt via {!Resources.reservations}/[restore]); each dirty
      group is routed as an independent single-group sub-problem on the
      fixed placement.  Group-local routing is sound because
      {!Mapping.map_with_placement} consults only the group's own
      resource state — use-cases never contend across groups.
    + {b Warm_placement} — some dirty group failed to route, the
      {!Feasibility} certificate refutes the retained mesh, or the
      stitched design's phase-4 report came out worse than the old
      design's (a verified old design must stay verified; an old
      design that already shipped with reported violations keeps its
      best-effort standard — retained groups inherit its report
      verbatim): the whole new problem is routed once on the retained
      mesh and placement.
    + {b Regrown} — the full growth search, exactly
      {!Mapping.map_design} on the new problem.

    Each step is served from the content-addressed cache
    ({!Mapping_cache.with_placement} keys each dirty component's
    sub-problem by its own digest, so repeated churn steps memoize
    per component).  With the cache off ([--no-cache],
    {!Mapping_cache.set_enabled}[ false]) every sub-problem is computed
    directly: that run is the oracle.  Both give byte-identical
    results — property-tested over random churn sequences in
    [test/test_remap.ml], pruning on or off.

    The retained mesh is never shrunk: removing a use-case keeps the
    old mesh even when a smaller one would now suffice (configuration
    stability is the point of remapping — a full re-run recovers the
    minimal mesh when wanted). *)

type path =
  | Reused          (** pure removal/renumbering; no routing ran *)
  | Delta of int    (** [n] dirty groups re-routed on the old placement *)
  | Warm_placement  (** whole problem re-routed on the old mesh + placement *)
  | Regrown         (** full growth search *)

type delta = {
  clean : (int list * int list) list;
      (** matched groups, [(old ids, new ids)], in new-group order *)
  dirty : int list list;   (** new groups with no content-equal old group *)
  removed : int list list; (** old groups matched by no new group *)
}

type outcome = {
  design : Design_flow.t;
  delta : delta;
  path : path;
}

val diff :
  old:Design_flow.t ->
  all_use_cases:Noc_traffic.Use_case.t list ->
  groups:int list list ->
  delta
(** Content-based dirty set: a new group is {e clean} when some unused
    old group has the same member count and positionally content-equal
    use-cases (same core count; same flow lists, bandwidths and
    latencies compared bit-exactly).  Names and ids are ignored, as in
    {!Mapping_cache.problem_digest}.  Matching is first-fit over old
    groups in order, so it is deterministic. *)

val remap :
  ?config:Noc_arch.Noc_config.t ->
  ?prune:bool ->
  old:Design_flow.t ->
  Design_flow.spec ->
  (outcome, string) result
(** Re-map [spec] against the completed design [old].  [config]
    defaults to the old mapping's; passing a different one forces the
    fallback chain (retained slot tables are only valid under the
    config that produced them).  [prune] (default [true]) applies to
    the growth search of the [Regrown] fallback and also gates the
    certificate check that protects the retained mesh.  Errors only
    when the final [Regrown] fallback fails. *)
