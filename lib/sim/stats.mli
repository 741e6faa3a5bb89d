(** Streaming and batch statistics used by the evaluation harnesses. *)

(** Streaming mean / variance / extremes (Welford's algorithm). *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 on an empty accumulator. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two samples. *)

  val min : t -> float
  (** +inf on an empty accumulator. *)

  val max : t -> float
  (** -inf on an empty accumulator. *)

  val merge : t -> t -> t
  (** Combine two accumulators as if all samples were added to one. *)
end

(** Batch statistics over stored samples (percentiles need the data). *)
module Sample : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile s p] with [p] in \[0,100\], linear interpolation.
      @raise Invalid_argument on an empty sample or p outside \[0,100\]. *)

  val median : t -> float
  val max : t -> float
  val min : t -> float

  val append : into:t -> t -> unit
  (** Append [src]'s samples to [into] in their original insertion order
      (one array blit — no sorting, no per-sample work). *)
end

(** Fixed-bin histogram. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  val add : t -> float -> unit
  (** Values outside \[lo, hi\] are clamped into the first/last bin. *)

  val counts : t -> int array
  val total : t -> int
  val bin_edges : t -> float array
  (** [bins + 1] edges. *)

  val merge_into : into:t -> t -> unit
  (** Add [src]'s bucket counts into [into].
      @raise Invalid_argument unless both histograms share lo/hi/bins. *)
end

val ratio : int -> int -> float
(** [ratio num den] = 100·num/den as a percentage; 0 if [den] = 0. *)
