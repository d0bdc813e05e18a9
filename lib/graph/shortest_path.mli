(** Shortest paths with pluggable, state-dependent edge costs.

    The unified mapping algorithm (paper §5) routes every flow on the
    least-cost path where the cost of a link depends on the residual
    bandwidth and slot state of the use-case being routed.  Passing the
    cost as a function keeps this module independent of the NoC
    resource bookkeeping.

    There is one Dijkstra, {!search}.  It runs over an {!adjacency}
    (compressed rows of a graph's arcs, built once per graph) and
    writes its distances and parents into a caller-owned {!scratch},
    so repeated searches on one graph allocate nothing.  Its costs are
    a flat float array, one per arc: [infinity] declares an arc
    unusable.  {!dijkstra}, {!dijkstra_all} and {!hop_path} are
    one-shot conveniences over the same search that take the cost as a
    function, [None] for an unusable arc. *)

type adjacency
(** Arcs of every node in insertion order ({!Intgraph.iter_succ}'s
    order), as flat arrays.  Immutable, so one value may be shared
    between domains. *)

val adjacency : Intgraph.t -> adjacency
(** Snapshot of a graph's arcs; later [add_edge]s are not seen. *)

val node_count : adjacency -> int

val arc_count : adjacency -> int

val arc_edge : adjacency -> int -> int
(** Edge id of an arc, by its position [0 .. arc_count - 1] in the
    adjacency (node by node, each node's arcs in insertion order). *)

type scratch
(** Working storage of one search: distances, parent arcs, the settled
    set and the frontier heap.  Not safe to share between domains. *)

val scratch : adjacency -> scratch
(** Storage sized for searches over [adjacency] (or any adjacency with
    the same node and arc counts). *)

val search : scratch -> adjacency -> costs:float array -> source:int -> target:int -> unit
(** Dijkstra from [source], stopping once [target] is settled; a
    negative [target] settles every reachable node.  [costs.(k)] is the
    cost of arc [k] (see {!arc_edge}): non-negative, or [infinity] for
    an unusable arc.  Arcs are relaxed in adjacency order and the
    frontier breaks priority ties by push order, so equal-cost paths
    are chosen the same way on every run.  Results stay in [scratch]
    until its next search.
    @raise Invalid_argument on an out-of-range [source] or a negative
    cost on a relaxed arc. *)

val distance : scratch -> int -> float
(** Least cost to a node after {!search} ([infinity] if not reached;
    after an early stop, only settled nodes are final). *)

val distances : scratch -> float array
(** The live distance array of the last search (not a copy: the next
    search overwrites it). *)

val path_edges : scratch -> source:int -> target:int -> int list option
(** Edge ids from [source] to [target] along the last search's parent
    arcs, in travel order; [None] when [target] was not reached. *)

type path = {
  nodes : int list;  (** visited nodes, source first, destination last *)
  edges : int list;  (** edge ids along the path, in travel order *)
  cost : float;      (** total accumulated cost *)
}

val dijkstra :
  Intgraph.t ->
  cost:(edge:int -> src:int -> dst:int -> float option) ->
  source:int ->
  target:int ->
  path option
(** Least-cost path from [source] to [target].  [cost] returns [None]
    to declare an arc unusable, otherwise a non-negative cost.  Returns
    [None] when the target is unreachable through usable arcs. *)

val dijkstra_all :
  Intgraph.t ->
  cost:(edge:int -> src:int -> dst:int -> float option) ->
  source:int ->
  float array * int array
(** Single-source variant.  Returns [(dist, parent_edge)], where
    [dist.(v)] is [infinity] for unreachable [v] and [parent_edge.(v)]
    is the edge id used to reach [v] ([-1] for the source and
    unreachable nodes). *)

val hop_path : Intgraph.t -> source:int -> target:int -> path option
(** Unweighted shortest path: every arc costs 1. *)
