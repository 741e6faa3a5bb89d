(** Multi-hop network topology: nodes connected by directed simplex links.

    Matches the paper's network model: "neighbor nodes are connected by two
    simplex links, one for each direction, and all links have an identical
    bandwidth".  Links carry a capacity in Mbps; nodes are integers
    [0 .. num_nodes - 1]. *)

type link = {
  id : int;
  src : int;
  dst : int;
  capacity : float;  (** Mbps *)
}

type t

val create : num_nodes:int -> t
(** Topology with no links yet. *)

val add_link : t -> src:int -> dst:int -> capacity:float -> int
(** Add one simplex link; returns its id.  Parallel links are permitted
    (multigraph), matching [WHA90] in the paper's references.
    @raise Invalid_argument on out-of-range endpoints, [src = dst], or
    non-positive capacity. *)

val add_duplex : t -> a:int -> b:int -> capacity:float -> int * int
(** Two simplex links (a→b, b→a); returns their ids. *)

val num_nodes : t -> int
val num_links : t -> int
val link : t -> int -> link
(** @raise Invalid_argument on an unknown id. *)

val out_links : t -> int -> int list
(** Ids of links leaving a node. *)

val in_links : t -> int -> int list
(** Ids of links entering a node. *)

val out_array : t -> int -> int array
(** Flat view of {!out_links} in the same order, cached per topology so
    routing inner loops allocate nothing.  The array is shared: callers
    must not mutate it, and it is invalidated by {!add_link}. *)

val in_array : t -> int -> int array
(** Flat view of {!in_links}; same sharing contract as {!out_array}. *)

val link_unsafe : t -> int -> link
(** Unchecked {!link}, for ids taken from {!out_array}/{!in_array}. *)

val find_link : t -> src:int -> dst:int -> int option
(** Some id of a link from [src] to [dst] (the first added), if any. *)

val links : t -> link list
val iter_links : t -> (link -> unit) -> unit
val total_capacity : t -> float
(** Sum of all link capacities (the paper's "total network bandwidth
    capacity"). *)

val neighbors : t -> int -> int list
(** Distinct destination nodes of out-links. *)

val degree : t -> int -> int
(** Out-degree in links. *)
