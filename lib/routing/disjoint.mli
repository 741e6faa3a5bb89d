(** Disjoint-path routing for D-connections.

    The paper routes the channels of a D-connection "disjointly by a
    sequential shortest-path search algorithm": the primary goes over a
    shortest admissible path, then each backup is routed avoiding the
    interior components of all previously routed channels of the same
    connection (references [WHA90, SID91]). *)

type constraints = {
  link_ok : int -> bool;  (** admission per link id *)
  node_ok : int -> bool;  (** admission for intermediate nodes *)
  max_hops : int option;  (** QoS hop budget, [None] = unbounded *)
}

val unconstrained : constraints

val sequential_disjoint :
  ?constraints:constraints ->
  Net.Topology.t ->
  src:int ->
  dst:int ->
  count:int ->
  Net.Path.t list
(** Up to [count] mutually interior-disjoint paths, shortest-first.  The
    list may be shorter than [count] when the topology or the constraints
    run out of disjoint routes. *)

val disjoint_avoiding :
  ?constraints:constraints ->
  ?reference:bool ->
  Net.Topology.t ->
  src:int ->
  dst:int ->
  avoid:Net.Path.t list ->
  Net.Path.t option
(** One shortest admissible path interior-disjoint from every path in
    [avoid] (used to route one more backup for an existing connection).
    [reference] is passed on to {!Shortest.shortest_path}. *)

val max_disjoint_bound : Net.Topology.t -> src:int -> dst:int -> int
(** Cheap upper bound on the number of interior-disjoint paths:
    min(out-degree src, in-degree dst). *)
