(** Unified mapping and NoC configuration — phase 3 of the methodology
    (paper §5, Algorithm 2).

    Cores are mapped onto mesh NoCs of growing size.  Flows are taken
    in non-increasing bandwidth order (preferring flows whose endpoints
    are already mapped); placing a flow immediately selects its path
    and reserves TDMA slots, per use-case, so infeasible placements are
    pruned as early as possible.  All use-cases share one core
    placement; each keeps its own resource state, and use-cases in one
    smooth-switching group share one configuration.

    One engine ships: rank-partitioned worklist heaps and a dense
    (src, dst) pair index.  Its oracle, the straightforward linear
    scan and per-pair list filtering of the same algorithm, lives with
    the tests ([test/oracle/reference_mapping.ml]); the two produce
    byte-identical placements, routes and slot assignments. *)

type t = {
  config : Noc_arch.Noc_config.t;
  mesh : Noc_arch.Mesh.t;
  placement : int array;  (** core id -> switch id *)
  routes : Noc_arch.Route.t list;
      (** one configured connection per (use-case, flow) *)
  states : Resources.t array;  (** final per-use-case resource state *)
  groups : int list list;      (** smooth-switching groups used *)
}

type failure = {
  attempts : (int * int * string) list;
      (** (mesh width, height, failure reason) per size tried *)
}

val switch_count : t -> int
(** Size of the designed NoC, the paper's §6.2 quality metric. *)

val switches_in_use : t -> int
(** Switches that host an NI or carry at least one route (mostly of
    interest on meshes larger than strictly necessary). *)

val routes_of_use_case : t -> int -> Noc_arch.Route.t list

type attempt_cache = {
  lookup : width:int -> height:int -> (t, string) result option;
  store : width:int -> height:int -> (t, string) result -> unit;
}
(** Memoization hooks for the growth loop, one mesh size at a time
    (see {!Mapping_cache.design_cache}, which builds them over the
    process-wide store).  The contract that keeps cached and fresh
    runs byte-identical: [lookup] may only return what a prior [store]
    recorded for the exact same problem at that size.  Closures must
    be safe to call from {!Noc_util.Domain_pool} workers — a sweep
    runs one growth search per pool task. *)

val map_design :
  ?config:Noc_arch.Noc_config.t ->
  ?parallel:bool ->
  ?prune:bool ->
  ?cache:attempt_cache ->
  ?seeded:(width:int -> height:int -> t option) ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  (t, failure) result
(** Run Algorithm 2.  [groups] partitions the use-case ids (get it
    from {!Switching.groups}); use-case ids must equal their list
    position.  Tries mesh sizes from {!Noc_arch.Mesh.growth_sequence}
    until one maps, or returns every size's failure reason.

    The search is always sequential, in growth order, so a one-shot
    map never spawns worker domains.  [parallel] is ignored; it stays
    only because the end-to-end benchmark driver passes it.

    [prune] (default [true]) issues a {!Feasibility} certificate and
    skips the growth-order prefix of sizes it rejects (its bounds are
    monotone along the growth order, so the rejected sizes are exactly
    a prefix); they are recorded in the failure's [attempts] as
    ["statically infeasible: ..."] without running placement or
    routing, and later sizes are attempted without being checked.
    Because the certificate's bounds are sound the result is identical
    either way ([false] is the [--no-prune] escape hatch: every size is
    attempted).

    [cache] memoizes the loop per mesh size: hits replay the recorded
    attempt (success or failure) without running placement or routing,
    and misses are stored after computing.  The designed NoC is
    byte-identical with and without a cache (property-tested in
    [test/test_cache.ml]).

    [seeded] is tried before the normal attempt at every size the
    certificate admits; a [Some] result is taken as that size's
    mapping.  The design-space sweep passes a retry of a neighbouring
    point's placement at the neighbour's size (and [None] elsewhere),
    so a warm start walks exactly the sizes a cold search does. *)

type placement_bias =
  | Compact  (** prefer co-locating near the traffic (default) *)
  | Spread   (** prefer emptier switches: relieves congested regions *)

val map_on_mesh :
  ?bias:placement_bias ->
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  (t, string) result
(** A single size attempt (the body of the outer loop), exposed for
    tests and for the annealing refinement.  [map_design] tries each
    size with [Compact] first and retries with [Spread] before growing
    the mesh — a cheap whole-attempt backtrack that rescues sizes where
    greedy co-location paints itself into a corner. *)

val map_attempt :
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  (t, string) result
(** One mesh-size attempt exactly as the growth loop runs it: greedy
    [Compact] placement first, then the [Spread] backtrack, returning
    the compact attempt's error when both fail.  Exposed for the
    certificate soundness tests. *)

val map_with_placement :
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  groups:int list list ->
  placement:int array ->
  Noc_traffic.Use_case.t list ->
  (t, string) result
(** Route all flows with a fixed core placement (no placement freedom);
    used by the simulated-annealing refinement to evaluate a candidate
    placement. *)

val total_weighted_hops : t -> float
(** Sum over all routes of bandwidth x hop count — the power-oriented
    cost that placement refinement minimises (shorter paths for bigger
    flows, cf. paper §5's intuition). *)

val pp_failure : Format.formatter -> failure -> unit
