(** Mutable binary min-heap of integer payloads keyed by float
    priorities.

    Used as the frontier of Dijkstra's algorithm.  Priorities and
    payloads live in two flat arrays, so pushing and popping allocate
    nothing once the arrays are large enough.  Decrease-key is handled
    by lazy deletion: push the element again with the smaller priority
    and skip stale pops on the caller's side (Dijkstra does this by
    checking the settled set).  Equal priorities pop in an order fixed
    by the push sequence alone, so a caller's ties break the same way
    on every run. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty heap with room for [capacity] (default 8) entries before
    it grows. *)

val is_empty : t -> bool

val length : t -> int

val push : t -> priority:float -> int -> unit

val min_priority : t -> float
(** Priority of the minimum entry.  @raise Invalid_argument when
    empty. *)

val pop : t -> int
(** Remove the minimum entry and return its payload, without
    allocating.  @raise Invalid_argument when empty. *)

val pop_min : t -> (float * int) option
(** Remove and return the minimum-priority entry. *)

val peek_min : t -> (float * int) option

val clear : t -> unit
