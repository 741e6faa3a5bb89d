(** Weighted shortest paths (Dijkstra) with per-link costs.

    The plain evaluation routes by hop count ({!Shortest}), but the
    spare-aware backup-routing extension ([HAN97b], referenced in
    Section 7.2) needs real-valued link costs: the marginal spare
    bandwidth a backup would force a link to reserve. *)

val shortest_path :
  cost:(int -> float option) ->
  ?node_ok:(int -> bool) ->
  ?max_hops:int ->
  Net.Topology.t ->
  src:int ->
  dst:int ->
  (Net.Path.t * float) option
(** Minimum-total-cost path and its cost.  [cost id = None] excludes
    the link with that id; costs must be non-negative.  [max_hops]
    additionally bounds the path length (lexicographic: among admissible
    paths, minimum cost wins; hop count only constrains feasibility).
    [node_ok] filters intermediate nodes (endpoints exempt).
    @raise Invalid_argument on a negative cost. *)
