(** 2D grid switch topologies: mesh and torus.

    Switches sit on a [width] x [height] grid; every neighbouring pair
    is joined by two directed links (one per direction), because TDMA
    slot tables and residual bandwidth are per-direction resources.  A
    torus additionally wraps each row and column (when the dimension
    exceeds 2, so no parallel links arise).  Link ids are dense in
    [0 .. link_count-1] so per-use-case resource state can live in flat
    arrays indexed by link id.

    The paper evaluates on meshes; §5 notes the methodology "is
    applicable to any NoC topology", which the torus variant exercises.
    Caveat: XY routing on a torus is not deadlock-free without virtual
    channels (not modelled); the verification phase's channel-dependency
    check stays honest about that. *)

type kind =
  | Mesh
  | Torus

type t

val create : width:int -> height:int -> t
(** A mesh.  @raise Invalid_argument unless both dimensions are
    positive. *)

val create_kind : kind:kind -> width:int -> height:int -> t
(** A mesh or torus. *)

val with_express : t -> express:(int * int) list -> t
(** Add bidirectional express channels (long-range link pairs) between
    arbitrary switch pairs — a lightweight form of custom topology on
    top of the grid.  Min-cost routing exploits them; XY routing
    ignores them (they carry no compass direction); the RTL backend
    leaves them unconnected (documented limitation).
    @raise Invalid_argument on out-of-range, self-loop or already
    adjacent pairs. *)

val kind : t -> kind

val width : t -> int
val height : t -> int

val switch_count : t -> int

val link_count : t -> int
(** Number of directed switch-to-switch links. *)

val graph : t -> Noc_graph.Intgraph.t
(** The directed switch graph; edge ids are link ids. *)

val adjacency : t -> Noc_graph.Shortest_path.adjacency
(** {!graph}'s arcs in routing form, built once with the mesh. *)

val coord : t -> int -> int * int
(** [(x, y)] of a switch id. *)

val switch_at : t -> x:int -> y:int -> int
(** Switch id at a coordinate. *)

val link_endpoints : t -> int -> int * int
(** [(src_switch, dst_switch)] of a link id. *)

val link_between : t -> src:int -> dst:int -> int option
(** Directed link id between two adjacent switches, if any. *)

type direction =
  | East
  | West
  | North
  | South

val neighbor_toward : t -> int -> direction -> int option
(** The adjacent switch in a compass direction, honouring wraparound on
    a torus; [None] at a mesh boundary. *)

val manhattan : t -> int -> int -> int
(** Hop distance between two switches under minimal routing (wrap-aware
    on a torus). *)

val xy_route : t -> src:int -> dst:int -> int list
(** Dimension-ordered (X then Y) route as a list of link ids, taking
    the shorter way around on a torus; empty when [src = dst]. *)

val center : t -> int
(** A switch nearest the geometric centre (used to seed placement). *)

val growth_sequence : max_dim:int -> (int * int) list
(** Topology sizes tried by Algorithm 2's outer loop, from a single
    switch upward, alternating width/height growth:
    (1,1); (2,1); (2,2); (3,2); (3,3); ... up to (max_dim, max_dim). *)

val pp : Format.formatter -> t -> unit
