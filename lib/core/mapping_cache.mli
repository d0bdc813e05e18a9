(** Process-wide content-addressed cache of mapping results.

    A single {!Noc_util.Result_cache} instance, versioned by the
    executable's build fingerprint ({!Noc_util.Build_info}), memoizes
    the expensive unit of the whole tool — one mapping attempt of one
    problem on one mesh — across the design flow, the design-space
    sweep, the minimum-frequency search and separate CLI runs (when a
    cache directory is attached).

    The key is a canonical digest of the exact problem: every
    {!Noc_arch.Noc_config} knob, the smooth-switching groups and each
    use-case's flows (src, dst, hex-exact bandwidth and latency,
    service class) in order.  Use-case and flow {e names} are excluded
    — renaming traffic does not change the mapping problem.  Values are results themselves: successes and failures
    (per mesh size, so a size that cannot map is never re-attempted).
    Every mapping is copied on its way into the store and on every way
    out, so callers never alias a stored state.  Sizes a feasibility
    certificate rejects are never stored: the growth loop re-derives
    them from the certificate on every run.

    Policy: the in-memory tier is on by default ([--no-cache] turns it
    off); the disk tier only exists once {!set_dir} is called
    ([--cache-dir]), and only it runs {!Mapping_codec} (byte-exact
    round-trip; failures as their message).  Mappings on meshes with
    express channels are not representable by the codec and stay in
    memory. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Turn the cache off ([false]) or back on for the whole process.
    When off, every wrapper below calls straight through and
    {!design_cache} returns [None]. *)

val set_dir : string option -> unit
(** Attach ([Some dir]) or detach the persistent tier.  Attaching
    registers an [at_exit] hook that folds this process's counters into
    the store's [STATS] file. *)

val dir : unit -> string option

val stats : unit -> Noc_util.Result_cache.stats
(** Counters accumulated by this process. *)

val flush : unit -> unit
(** Fold this process's counters into the persistent tier's [STATS]
    file {e now} (no-op without {!set_dir}).  The same fold runs
    [at_exit]; the serve daemon calls this during graceful shutdown so
    the disk tier is consistent before the socket closes. *)

val clear : unit -> unit
(** Drop the memory tier and this build's disk entries. *)

val problem_digest :
  config:Noc_arch.Noc_config.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  string
(** The canonical problem digest (hex); exposed for tests. *)

val design_cache :
  ?config:Noc_arch.Noc_config.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  Mapping.attempt_cache option
(** Hooks for {!Mapping.map_design}'s growth loop over this problem,
    or [None] when the cache is disabled.  [config] defaults to
    [map_design]'s ({!Noc_arch.Noc_config.default}). *)

val on_mesh :
  ?bias:Mapping.placement_bias ->
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  (Mapping.t, string) result
(** Cached {!Mapping.map_on_mesh} (keyed by bias as well). *)

val with_placement :
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  groups:int list list ->
  placement:int array ->
  Noc_traffic.Use_case.t list ->
  (Mapping.t, string) result
(** Cached {!Mapping.map_with_placement} (keyed by the placement). *)
