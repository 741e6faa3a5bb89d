(** Channel paths: a sequence of links from a source to a destination.

    The component view of a path (all its nodes, endpoints included, plus
    all its links) is the basis of the paper's overlap count
    [sc(M_i, M_j)] and component count [c(M)]. *)

type t = private {
  src : int;
  dst : int;
  links : int array;  (** consecutive link ids; may be empty iff src = dst *)
}

val make : Topology.t -> src:int -> dst:int -> links:int list -> t
(** Validates contiguity: each link must start where the previous ended,
    the first at [src], the last at [dst].
    @raise Invalid_argument on a broken chain. *)

val of_links : Topology.t -> int list -> t
(** Path inferred from a non-empty contiguous link list. *)

val hops : t -> int
val nodes : Topology.t -> t -> int list
(** All nodes in order, endpoints included ([hops + 1] entries). *)

val intermediate_nodes : Topology.t -> t -> int list
(** Nodes strictly between the endpoints. *)

val links : t -> int list

val components : Topology.t -> t -> Component.Set.t
(** Every node (endpoints included) and every link of the path: the
    paper's component set of a channel, so [Component.Set.cardinal]
    equals [c(M)] = 2·hops + 1. *)

val mask_interior : Topology.t -> t -> Component.Mask.mask -> unit
(** Add the path's interior components to the mask: those whose failure
    disables the channel without disabling an end system, that is every
    link plus the intermediate nodes.  Read straight off the link array,
    with no set built. *)

val uses_component : Topology.t -> t -> Component.t -> bool
val uses_link : t -> int -> bool
val uses_node : Topology.t -> t -> int -> bool
(** Endpoint nodes count as used. *)

val disjoint : Topology.t -> t -> t -> bool
(** No shared interior component (shared endpoints allowed): the paper's
    notion of disjointly-routed channels of one D-connection. *)

val shared_components : Topology.t -> t -> t -> int
(** [sc(M_i, M_j)]: size of the intersection of the full component sets. *)

val pp : Format.formatter -> t -> unit
