(** Fixed-size cyclic bitset over slot indices [0, slots).

    Backs the free-slot masks of {!Slot_table}: testing whether a
    connection can claim a starting slot on every hop of a path
    reduces to intersecting each hop's mask rotated by its hop number
    ({!inter_rotated}), which is O(1) per hop for slot-table sizes up
    to 62 (one native word) and O(slots) beyond. *)

type t

val create : slots:int -> full:bool -> t
(** All bits clear ([full:false]) or all set ([full:true]).
    @raise Invalid_argument unless [slots > 0]. *)

val slots : t -> int

val copy : t -> t

val mem : t -> int -> bool
(** @raise Invalid_argument when the index is outside [0, slots). *)

val set : t -> int -> unit

val clear : t -> int -> unit

val count : t -> int
(** Number of set bits. *)

val is_empty : t -> bool

val inter_rotated : into:t -> t -> shift:int -> unit
(** [inter_rotated ~into m ~shift] keeps in [into] only the bits [i]
    for which bit [(i + shift) mod slots] of [m] is set — the cyclic
    rotation matching a TDMA table seen [shift] hops downstream.
    [shift] may be any integer; it is taken modulo the size.
    @raise Invalid_argument when the two sizes differ. *)

val next_set_from : t -> int -> int option
(** Smallest set bit index [>= i], within [0, slots) — no cyclic wrap;
    callers wanting the wheel semantics probe again from 0.
    @raise Invalid_argument when [i] is negative. *)

val fill : t -> unit
(** Set every bit: the mask [create ~full:true] makes, in place. *)

val indices_into : t -> int array -> int
(** [indices_into t out] writes the set indices, increasing, to the
    front of [out] and returns how many there are.  [out] needs room
    for {!count} entries ([slots] always suffices). *)

val to_list : t -> int list
(** Set bit indices, increasing. *)

val pp : Format.formatter -> t -> unit
(** E.g. [1..11.] (set = [1], clear = [.]). *)
