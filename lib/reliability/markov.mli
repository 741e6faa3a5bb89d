(** Continuous-time Markov chains for D-connection reliability (Figure 3).

    The paper derives R(t) of a D-connection from a CTMC whose states
    track which channels are currently failed, with channel failure rates
    proportional to path component counts and a repair rate µ for
    re-establishment; R(t) = 1 − P(absorbing state at t).  We solve the
    transient distribution by uniformization, which is numerically robust
    for the stiff rate ratios involved (µ ≫ λ). *)

type t
(** A CTMC with states [0 .. n-1]. *)

val create : states:int -> t
(** No transitions yet. *)

val add_rate : t -> src:int -> dst:int -> float -> unit
(** Add (accumulate) a transition rate.
    @raise Invalid_argument on out-of-range states, [src = dst], or a
    negative rate. *)

val transient : t -> initial:float array -> t_end:float -> float array
(** State distribution at [t_end] starting from [initial]
    (uniformization, truncated at 1e-12 tail mass).
    @raise Invalid_argument if [initial] has the wrong length or does not
    sum to ~1. *)

val absorbing_probability : t -> initial:int -> absorbing:int list -> t_end:float -> float
(** Probability mass in the absorbing states at [t_end], starting from
    state [initial]. *)

(** The concrete models of Figure 3. *)
module Dconn : sig
  type params = {
    lambda1 : float;  (** failure rate, primary-only components *)
    lambda2 : float;  (** failure rate, backup-only components *)
    lambda3 : float;  (** failure rate, components shared by both *)
    mu : float;  (** channel repair / re-establishment rate *)
  }

  val figure_3a : params -> t
  (** 4 states — 0: both healthy, 1: primary failed (backup active),
      2: backup failed (primary active), 3: service lost (absorbing).
      Transitions: 0→1 at λ1, 0→2 at λ2, 0→3 at λ3, 1→0 and 2→0 at µ,
      1→3 at λ2+λ3, 2→3 at λ1+λ3. *)

  val figure_3b : lambda:float -> mu:float -> t
  (** Simplified model for equal-length disjoint channels: 3 states —
      0: both healthy, 1: one failed, 2: lost (absorbing); 0→1 at 2λ,
      1→0 at µ, 1→2 at λ. *)

  val reliability : t -> t_end:float -> float
  (** R(t) = 1 − P(absorbed by t) with state 0 initial and the highest-
      numbered state absorbing (the convention of both builders). *)

  val mttf : t -> float
  (** Mean time to absorption from state 0 (linear solve on the
      transient states). *)
end
