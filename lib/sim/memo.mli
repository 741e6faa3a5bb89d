(** Small caches keyed on a value's physical identity.

    A cache holds at most eight entries, one per key.  Each entry holds
    its value through an ephemeron, so a cached value lives no longer
    than its key.  The entries sit in one [Atomic.t], so domains may
    share a cache: an entry is published whole, and a reader sees the
    entries before a build or after it.  Builds are serialised by the
    cache's mutex, so domains that miss together build one value; a
    build replaces its key's entry, drops the entries of keys that have
    died and, when eight live keys are cached, the oldest entry.  Cache
    only values nobody mutates once built. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_or_build :
  ('k, 'v) t -> 'k -> current:('v -> bool) -> (unit -> 'v) -> 'v
(** The value cached for a key physically equal to this one if [current]
    accepts it.  Otherwise, under the cache's lock, the same check again
    and, if it still fails, [build ()], whose value replaces the key's
    entry.  [build] must not use this cache. *)
