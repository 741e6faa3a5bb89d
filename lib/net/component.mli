(** Network components: the unit of failure in the paper's model.

    A component is either a node or a (simplex) link.  The paper counts
    both kinds when measuring path overlap ([sc(M_i, M_j)]) and when
    computing channel failure rates ([c(M)]·λ). *)

type t =
  | Node of int
  | Link of int

val compare : t -> t -> int
val equal : t -> t -> bool
val is_node : t -> bool
val to_string : t -> string

(** Sets of components.  The libraries count and intersect a path's
    components through [Bcp.Mux.encode_path]'s sorted arrays instead;
    [Set], {!inter_card} and [Net.Path.components] stay as the tests'
    reference for that encoding. *)
module Set : Set.S with type elt = t

val inter_card : Set.t -> Set.t -> int
(** Cardinality of the intersection, without building it. *)

(** Flat component set for routing inner loops: byte-per-component with an
    O(members) reset.  Reusable scratch, reset on every acquisition;
    backup routing ([Bcp.Establish]) fills one per route. *)
module Mask : sig
  type mask

  val add : mask -> t -> unit
  val mem_node : mask -> int -> bool
  val mem_link : mask -> int -> bool

  val scratch : num_nodes:int -> num_links:int -> mask
  (** Domain-local reusable mask, reset on every call.  At most one live
      user per domain: acquiring again invalidates the previous use. *)
end
