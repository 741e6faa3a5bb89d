(** Failure scenarios: which components crash together.

    The paper evaluates three models — single link failure, single node
    failure, and double node failures — injected after all connections are
    established (Section 7.2).  A node failure implies the failure of its
    incident links (a crashed node forwards nothing). *)

type t = {
  label : string;
  components : Net.Component.t list;  (** the directly failed components *)
}

val single_link : Net.Topology.t -> int -> t
val single_node : Net.Topology.t -> int -> t
val double_node : Net.Topology.t -> int -> int -> t

val effective_components : Net.Topology.t -> t -> Net.Component.t list
(** The directly failed components plus every link incident to a failed
    node — the full set disabled from routing's point of view. *)

val all_single_links : Net.Topology.t -> t list
val all_single_nodes : Net.Topology.t -> t list

val all_double_nodes : Net.Topology.t -> t list
(** Every unordered node pair — O(n²/2) scenarios. *)

val sampled_double_nodes : Sim.Prng.t -> Net.Topology.t -> count:int -> t list
(** Distinct random node pairs (for quick runs on large networks); [count]
    0 gives [[]].
    @raise Invalid_argument if [count < 0]. *)

val random_links : Sim.Prng.t -> Net.Topology.t -> count:int -> t
(** One scenario with [count] distinct failed links. *)
