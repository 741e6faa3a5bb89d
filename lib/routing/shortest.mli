(** Shortest-path search over a topology.

    All channel routing in the paper is hop-count shortest-path routing
    subject to admission constraints ("a sequential shortest-path search
    algorithm"), so the primitive here is a BFS/Dijkstra hybrid with a
    per-link admission predicate and an optional hop budget. *)

val hop_distance : Net.Topology.t -> src:int -> int array
(** Unconstrained BFS hop distances from [src] to every node
    ([max_int] when unreachable). *)

val hop_distance_to : Net.Topology.t -> dst:int -> int array
(** Hop distances from every node *to* [dst] (BFS over reversed links). *)

val shortest_path :
  ?link_ok:(int -> bool) ->
  ?node_ok:(int -> bool) ->
  ?max_hops:int ->
  ?reference:bool ->
  Net.Topology.t ->
  src:int ->
  dst:int ->
  Net.Path.t option
(** Minimum-hop path from [src] to [dst] among links whose id satisfies
    [link_ok] and intermediate nodes satisfying [node_ok] (endpoints are
    exempt from [node_ok]).  [max_hops] bounds the accepted path length.  Among
    equal-cost choices the lowest link id wins, so results are stable.
    A budgeted search skips every node the {!Oracle} bound rules out;
    [~reference:true] runs the unpruned reference search instead, which
    returns the same path with more admission checks. *)

val shortest_hops :
  ?link_ok:(int -> bool) ->
  ?node_ok:(int -> bool) ->
  ?reference:bool ->
  Net.Topology.t ->
  src:int ->
  dst:int ->
  int option
(** Hop count of the constrained shortest path, without materialising it.
    Without predicates this is an O(1) {!Oracle} lookup; with predicates
    it runs a bidirectional level-synchronised BFS.  Both return exactly
    what the one-sided reference search would; [~reference:true] runs
    that search. *)

