(** Static feasibility certificates for the mesh-growth search.

    [certify] inspects a design's guaranteed traffic — merged per
    use-case group exactly the way the shared-configuration router
    reserves it (per ordered pair: maximum bandwidth, minimum latency)
    — and derives machine-checkable lower bounds that any successful
    mapping must satisfy:

    - {b NI count}: a [w x h] grid with [nis_per_switch] NIs per switch
      must seat every core.
    - {b Per-core cut}: a core can co-locate with at most
      [nis_per_switch - 1] partners; each remaining partner's flows
      reserve their per-link slots on the core's switch egress/ingress
      links, which number at most the grid's maximum degree.
    - {b Aggregate occupancy}: summing those directional demands counts
      every remote reservation at most twice, so half the sum must fit
      in [link_count x slots].
    - {b Impossibilities}: flows no grid of any size can carry (latency
      below one slot duration with no co-location escape, bandwidth
      above the whole table, or contradictory co-location forcing).

    Per-flow slot costs come from {!eff_slots}, which lower-bounds what
    [Path_select] can ever achieve; every bound is monotone along
    {!Noc_arch.Mesh.growth_sequence}, so rejected sizes form a prefix
    of the growth order and pruning them cannot change the first
    success (see the soundness property test in [test_analysis.ml]). *)

type demand = {
  core : int;
  egress : bool;  (** slots leaving ([true]) or entering the core's switch *)
  slots : int;    (** lower bound on reserved slots across those links *)
}

type group_cert = {
  group : int;          (** index into the [groups] argument *)
  cut : demand list;    (** per-core directional bounds (positive only) *)
  aggregate : int;      (** slots any mapping reserves across all links *)
}

type impossibility = {
  group : int;
  src : int;
  dst : int;
  reason : string;
}

type t = {
  topology : Noc_arch.Mesh.kind;
  slots : int;
  cap : int;      (** NIs per switch *)
  cores : int;
  max_dim : int;  (** growth cap the certificate was issued under *)
  impossible : impossibility list;  (** non-empty: no size can map *)
  group_certs : group_cert list;
}

val eff_slots : config:Noc_arch.Noc_config.t -> float -> float -> int option
(** [eff_slots ~config bw lat] — smallest per-link slot count a remote
    reservation of a [bw] MB/s flow with latency bound [lat] ns can
    occupy (bandwidth floor plus best-case TDMA spread at one hop), or
    [None] when no slot count satisfies both. *)

val certify :
  ?config:Noc_arch.Noc_config.t ->
  groups:int list list ->
  Noc_traffic.Use_case.t list ->
  t
(** Build the certificate for a design (default configuration:
    {!Noc_arch.Noc_config.default}).  Pure and allocation-local: safe
    to call concurrently from pool workers.
    @raise Invalid_argument on an empty design or out-of-range group
    member. *)

val admits : t -> width:int -> height:int -> bool
(** Whether the certificate allows a mapping at this grid size.
    [false] is a proof of infeasibility; [true] promises nothing. *)

val admits_mesh : t -> Noc_arch.Mesh.t -> bool
(** {!admits} against an explicit mesh's switch graph — use for meshes
    that are not plain grids (express channels), which get credited
    with their real degrees and link count. *)

val explain : t -> width:int -> height:int -> string option
(** The first violated bound at this size, rendered; [None] iff
    {!admits}. *)

val first_admitted : t -> (int * int) option
(** Earliest growth-sequence size the certificate admits — where the
    pruned growth search starts.  [None]: provably infeasible up to the
    growth cap. *)

val pp : Format.formatter -> t -> unit
