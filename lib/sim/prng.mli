(** Deterministic pseudo-random number generation (SplitMix64).

    Every experiment in this repository is seeded, so the whole evaluation
    is reproducible bit-for-bit.  SplitMix64 is small, fast, and passes
    BigCrush for the uses we make of it (shuffles, uniform picks,
    exponential inter-arrival times). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; streams from
    the parent and the child are statistically independent. *)

val derive : seed:int -> index:int -> int
(** [derive ~seed ~index] is a statistically independent seed for the
    [index]-th element of a work list (SplitMix finalizer over the
    seeded state advanced [index + 1] gammas).  Unlike {!split} it needs
    no shared generator, so parallel workers can seed scenario [i]
    identically no matter which domain runs it ([index >= 0]). *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound); [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean ([mean > 0]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** Functional shuffle of a list. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is [k] distinct values drawn
    uniformly from \[0, n); requires [0 <= k <= n].
    @raise Invalid_argument otherwise. *)

val sample_at_most : t -> int -> int -> int list
(** [sample_at_most t k n] is [sample_without_replacement t (min k n) n]:
    a sample of [k] that stops at the whole population.
    @raise Invalid_argument if [k < 0]. *)
