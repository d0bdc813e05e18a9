(** Contention-free TDMA reservation along a path.

    In the Æthereal discipline a flit entering hop 1 in slot [t]
    traverses hop [i] in slot [t + i - 1] (mod table size), so a
    connection's reservation is fully described by its *starting*
    slots: start [t] claims slot [t + i] on the [i]-th link of the path
    (0-based).  This module finds, reserves and releases such aligned
    slot sets and computes the worst-case latency bound used by the
    analytic verification step. *)

val start_is_free : tables:Slot_table.t array -> start:int -> bool
(** Can a connection claim starting slot [start] on every hop? *)

val free_starts : tables:Slot_table.t array -> int list
(** All feasible starting slots, increasing.  The [tables] array holds
    the slot tables of the path's links in travel order and must be
    non-empty; all tables must have equal size. *)

val free_start_mask : tables:Slot_table.t array -> Bitmask.t
(** Same set as {!free_starts}, as a fresh mask: the intersection of
    every hop's free-slot mask rotated by its hop number.  Group-shared
    reservation intersects these across members without building
    intermediate lists. *)

val choose_spread : slots:int -> candidates:int list -> count:int -> int list option
(** Pick [count] of the [candidates] (starting-slot indices in a
    revolution of [slots]) spread as evenly as feasibility allows, to
    minimise the worst-case waiting gap; [None] when there are fewer
    candidates than [count].  Exposed so that group-shared reservations
    can run the same policy on an *intersection* of free starts. *)

val mark_spread :
  slots:int -> candidates:int array -> n:int -> count:int -> taken:Bytes.t -> unit
(** The policy of {!choose_spread} without lists: [candidates.(0 .. n-1)]
    must be strictly increasing and [1 <= count <= n]; on return
    exactly [count] bytes of [taken.(0 .. n-1)] are non-zero, marking
    the chosen candidates.  Allocates nothing, so the mapping engine
    escalates the count on one candidate array. *)

val marked_starts : candidates:int array -> n:int -> taken:Bytes.t -> int list
(** The candidates {!mark_spread} marked, increasing. *)

val marked_max_gap : slots:int -> candidates:int array -> n:int -> taken:Bytes.t -> int
(** {!max_start_gap} of the marked candidates, without building them
    as a list.  @raise Invalid_argument when none is marked. *)

val find_aligned : tables:Slot_table.t array -> count:int -> int list option
(** [count] starting slots chosen to minimise the worst-case waiting
    gap (slots are spread as evenly as feasibility allows), or [None]
    when fewer than [count] feasible starts exist. *)

val reserve : tables:Slot_table.t array -> owner:int -> starts:int list -> unit
(** Claim [start + hop] on every hop for every start.
    @raise Invalid_argument if any needed slot is taken (callers must
    use starts from [find_aligned] on unchanged tables). *)

val release : tables:Slot_table.t array -> owner:int -> unit
(** Free every slot owned by [owner] on every hop. *)

val max_start_gap : slots:int -> starts:int list -> int
(** Largest cyclic distance from an arbitrary arrival instant to the
    next reserved starting slot, in slots.  For a single start this is
    the full revolution.  @raise Invalid_argument on an empty list. *)

val worst_case_latency_ns :
  config:Noc_config.t -> starts:int list -> hops:int -> Noc_util.Units.latency
(** Worst-case end-to-end latency bound of a reserved connection:
    (max waiting gap + path length) slot durations. *)
