(** Per-use-case NoC resource state.

    The key idea of the paper (§5) versus the worst-case method [25]:
    *each use-case maintains separate data structures* for the
    available bandwidth and TDMA slots.  Capacity is accounted in slot
    units — the allocation granularity of an Æthereal-style NoC — so
    residual bandwidth is always [free slots x slot bandwidth] and the
    two books cannot diverge. *)

type t

val create : config:Noc_arch.Noc_config.t -> mesh:Noc_arch.Mesh.t -> use_case:int -> t
(** Fresh, empty state for one use-case on the given mesh. *)

val copy : t -> t
(** Independent deep copy: the tables and NI budgets share nothing
    with the original. *)

val use_case : t -> int
val mesh : t -> Noc_arch.Mesh.t
val config : t -> Noc_arch.Noc_config.t

val table : t -> int -> Noc_arch.Slot_table.t
(** Slot table of a link id. *)

val path_tables : t -> int list -> Noc_arch.Slot_table.t array
(** Tables along a path of link ids, in travel order. *)

val residual_bandwidth : t -> int -> Noc_util.Units.bandwidth
(** Free capacity of a link, MB/s. *)

val reserved_bandwidth : t -> int -> Noc_util.Units.bandwidth

val free_slots : t -> int -> int

val link_usable : t -> link:int -> needed_slots:int -> bool
(** Necessary per-link condition for routing a flow that needs
    [needed_slots] slots (alignment across the path is checked later by
    {!Noc_arch.Tdma.find_aligned}). *)

val utilization : t -> int -> float
(** Reserved fraction of one link. *)

val worst_utilization_into : t -> needed_slots:int -> float array -> unit
(** Fold this state into a per-link worst case, for routing several
    states together: [worst.(l)] becomes [infinity] when link [l] has
    fewer than [needed_slots] free slots here, and otherwise the larger
    of [worst.(l)] and the link's {!utilization} (which is never NaN or
    negative, so this is [Float.max]).  Allocates nothing. *)

val mean_utilization : t -> float
(** Mean utilization over all links (0 on a 1x1 mesh, which has none). *)

val max_utilization : t -> float

val ni_available : t -> core:int -> Noc_util.Units.bandwidth
(** Remaining NI link budget of a core ([infinity] when NI links are
    unconstrained). *)

val ni_reserve : t -> core:int -> bw:Noc_util.Units.bandwidth -> (unit, string) result
(** Budget the core's NI<->switch link (both directions tracked as one
    budget, matching one NI port pair per core).  Always succeeds when
    the configuration leaves NI links unconstrained. *)

val reservations : t -> (int * int * int) list
(** Every reserved slot as [(link, slot, owner)], in increasing
    (link, slot) order — a complete, canonical dump of the TDMA state,
    used by the mapping-result codec ({!Mapping_codec}). *)

val ni_budget_snapshot : t -> float array
(** Copy of the per-core remaining NI budgets (possibly shorter than
    the core count: entries are grown on demand by {!ni_reserve}). *)

val restore :
  config:Noc_arch.Noc_config.t ->
  mesh:Noc_arch.Mesh.t ->
  use_case:int ->
  ni_budget:float array ->
  reservations:(int * int * int) list ->
  t
(** Rebuild a state from a {!reservations} dump and a
    {!ni_budget_snapshot}: exactly inverts the pair, so a decoded
    cache entry is indistinguishable from the freshly computed state.
    @raise Invalid_argument on an out-of-range link or slot. *)

val pp : Format.formatter -> t -> unit
