(** Disjoint-set forest with path compression and union by rank.

    The oracle of {!Noc_graph.Components}: component structure computed
    two independent ways must agree. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets [0 .. n-1]. *)

val find : t -> int -> int
(** Canonical representative. *)

val union : t -> int -> int -> unit
(** Merge the two sets. *)

val same : t -> int -> int -> bool
(** Do the two elements share a set? *)

val count : t -> int
(** Number of disjoint sets. *)

val groups : t -> int list list
(** The sets, each sorted, ordered by smallest member. *)
