(** All-pairs static hop-distance oracle over an immutable topology.

    A dense int16 matrix of unconstrained hop distances, built whole on
    first use (one reverse BFS per destination, every row filled) and
    memoised per topology.  The
    matrix is a Bigarray outside the OCaml heap, shared read-only across
    domains.  Static distances lower-bound every admission-constrained
    distance, so {!Shortest} uses them both to prune budgeted searches
    and to answer unconstrained [shortest_hops] in O(1). *)

type t

val for_topo : Net.Topology.t -> t
(** The oracle for this topology, building it on first use.  Memoised
    through {!Sim.Memo} on physical equality plus the link count at build
    time, so mutating the topology with [add_link] invalidates the cached
    entry, and an oracle lives no longer than its topology.  Topologies
    with 65 535 nodes or more cannot be encoded in int16 distances.
    @raise Invalid_argument when [num_nodes >= 65535]. *)

val for_topo_opt : Net.Topology.t -> t option
(** {!for_topo}, but [None] instead of raising on oversized topologies. *)

val warm : Net.Topology.t -> unit
(** Force construction now (e.g. before timed or parallel phases) so the
    one-time build cost lands outside measured sections. *)

val distance : t -> src:int -> dst:int -> int
(** Unconstrained hop distance, [max_int] when unreachable.  O(1).
    @raise Invalid_argument on out-of-range nodes. *)

val stride : t -> int
(** Row length of {!raw}: the node count at build time. *)

val raw :
  t -> (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The backing matrix for hot loops: entry [dst * stride + v] is the
    hop distance from [v] to [dst], 0xFFFF when there is no path.
    Read-only. *)
