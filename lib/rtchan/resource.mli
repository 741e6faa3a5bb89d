(** Per-link bandwidth accounting.

    Each link holds two reservation pools: bandwidth dedicated to primary
    (active) channels, and *spare* bandwidth reserved collectively for
    backup channels (sized by the backup-multiplexing engine).  The
    admission invariant on every link is

      primary + spare ≤ capacity.

    The pools are deliberately simple — the paper considers "only link
    bandwidth for simplicity, but other resources like buffer and CPU can
    be treated similarly". *)

type t

val create : Net.Topology.t -> t
(** All pools empty. *)

val copy : t -> t
(** Every pool as it is now, independent of [t] from then on: what-if
    reservations on the copy leave [t] untouched. *)

val capacity : t -> int -> float
val primary : t -> int -> float
val spare : t -> int -> float
val free : t -> int -> float
(** capacity − primary − spare. *)

val can_reserve_primary : t -> int -> float -> bool
val reserve_primary : t -> int -> float -> unit
(** @raise Invalid_argument if the invariant would break. *)

val release_primary : t -> int -> float -> unit
(** @raise Invalid_argument if more than reserved would be released. *)

val can_set_spare : t -> int -> float -> bool
val set_spare : t -> int -> float -> unit
(** Replace the link's spare pool size (the mux engine recomputes it as a
    whole rather than incrementally adding).
    @raise Invalid_argument if the invariant would break or the value is
    negative. *)

val reserve_primary_path : t -> Net.Path.t -> float -> bool
(** All-or-nothing reservation along a path; [false] and no change if any
    link lacks room. *)

val release_primary_path : t -> Net.Path.t -> float -> unit

val total_capacity : t -> float
val total_primary : t -> float
val total_spare : t -> float

val network_load : t -> float
(** Paper's metric: 100 × total primary bandwidth / total capacity. *)

val spare_fraction : t -> float
(** 100 × total spare bandwidth / total capacity ("average spare-bandwidth
    reservation"). *)
