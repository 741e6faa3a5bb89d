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

(** Compressed sparse row adjacency of one direction: node [v]'s links
    are [link.(i)] for [i] in [[off.(v), off.(v + 1))], in the order of
    {!out_links} (or {!in_links}), and [peer.(i)] is the far end of
    [link.(i)]: its destination in {!out_csr}, its source in {!in_csr}.
    Routing inner loops read these three int arrays and no link record. *)
type csr = { off : int array; link : int array; peer : int array }

val out_csr : t -> csr
(** Out-links of every node, built on first use after the topology last
    grew and then shared: callers must not mutate the arrays.  Both
    directions are published together, so a domain reading one sees the
    other built at the same link count. *)

val in_csr : t -> csr
(** In-links of every node; [peer] holds each link's source.  Same
    sharing contract as {!out_csr}. *)

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
