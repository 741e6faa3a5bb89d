(** Dense integer ids for the flat state layout.

    Hot-path tables in the flat layout (mux link tables, netstate
    backup/channel indexes) are arrays indexed by dense ids.  This module is
    the allocation layer those slabs share: ids come from a watermark
    (recycling released ids LIFO so slabs stay dense under churn), and
    out-of-range accesses raise descriptive [Invalid_argument]s naming the
    id space and the offending id. *)

type t

val create : ?expected:int -> kind:string -> unit -> t
(** Fresh id space.  [kind] names the space in error messages ("bid",
    "channel", ...); [expected] pre-sizes internal storage. *)

val watermark : t -> int
(** Ids in [0, watermark) have been issued at least once. *)

val live_count : t -> int
(** Issued and not released. *)

val fresh : t -> int
(** Next id: the most recently released one if any (LIFO), else the
    watermark.  A space that never releases hands out 0, 1, 2, ... *)

val check : t -> int -> unit
(** @raise Invalid_argument when [id] is outside [0, watermark), naming the
    id space and the id. *)

val mem : t -> int -> bool
(** Issued and currently live. *)

val release : t -> int -> unit
(** Return [id] to the free pool.
    @raise Invalid_argument on out-of-range or double release. *)

(** Growable int vector, the flat mirror of the cons-list indexes it
    replaces: [push] appends, [to_list_rev] reads newest-first (the old
    reverse-insertion order), [remove_first] is the order-preserving
    filter. *)
module Ivec : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit

  val remove_first : t -> int -> unit
  (** Remove the first occurrence, preserving the remaining order; no-op
      when absent. *)

  val to_list_rev : t -> int list
  (** Newest-first list (equals the cons-list this vector mirrors). *)
end

(** Auto-growing array keyed by dense id, read as a total map: ids never
    written read back as the default. *)
module Slab : sig
  type 'a t

  val create : ?expected:int -> kind:string -> default:'a -> unit -> 'a t
  val set : 'a t -> int -> 'a -> unit

  val get : 'a t -> int -> 'a
  (** Total: default below 0 raises, unwritten ids return [default].
      @raise Invalid_argument on a negative id, naming the slab. *)

  val clear_id : 'a t -> int -> unit
  (** Reset one id to the default. *)
end
