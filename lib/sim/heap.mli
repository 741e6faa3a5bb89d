(** Array-based binary min-heap, parameterised by an explicit comparison.

    Used by the event queue (keyed by time then insertion sequence) and by
    Dijkstra's algorithm in the routing library. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap with the given total order (smallest element pops first). *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: elements in ascending order. *)
