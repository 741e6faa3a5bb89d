(** One-slot caches keyed on a value's physical identity.

    The slot holds an ephemeron, so a cached value lives no longer than
    its key, and the slot is an [Atomic.t], so domains may share it: a
    value is published whole, and a reader sees either the old entry or
    the new one.  Builds are serialised by the slot's mutex, so domains
    that miss together build one value.  Cache only values nobody
    mutates once built. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_or_build :
  ('k, 'v) t -> 'k -> current:('v -> bool) -> (unit -> 'v) -> 'v
(** The value cached for a key physically equal to this one if [current]
    accepts it.  Otherwise, under the slot's lock, the same check again
    and, if it still fails, [build ()], which replaces the slot's entry.
    [build] must not use this slot. *)
