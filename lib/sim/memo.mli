(** One-slot caches keyed on a value's physical identity.

    The slot holds an ephemeron, so a cached value lives no longer than
    its key, and the slot is an [Atomic.t], so domains may share it:
    a value is published whole by {!set}, and a reader sees either the
    old entry or the new one.  Cache only values nobody mutates after
    {!set}. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find : ('k, 'v) t -> 'k -> 'v option
(** The value last {!set} for a key physically equal to this one. *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Replace the slot's entry. *)
