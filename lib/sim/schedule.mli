(** Seeded scheduler perturbation (deterministic-simulation swarm layer).

    A perturbation profile bounds how hard the adversary may lean on the
    event engine: with probability [msg_rate] a network delivery is held
    back by a uniform extra delay in \[0, [msg_delay]\], and likewise
    [timer_rate] / [timer_delay] for protocol timers.  Delaying a
    delivery past later traffic {e reorders} messages; delaying a timer
    models a descheduled process.  All draws come from one SplitMix64
    stream, so a (seed, profile) pair replays the exact same schedule —
    and the {!disabled} profile consumes no randomness at all, keeping
    unperturbed runs byte-identical to runs with no schedule attached. *)

type profile = {
  msg_delay : float;  (** max extra delay added to a message delivery *)
  msg_rate : float;  (** probability a message delivery is perturbed *)
  timer_delay : float;  (** max extra delay added to a timer firing *)
  timer_rate : float;  (** probability a timer firing is perturbed *)
}

val disabled : profile
(** All zeros: attaching it is a no-op (verified byte-identical). *)

val make :
  ?msg_delay:float ->
  ?msg_rate:float ->
  ?timer_delay:float ->
  ?timer_rate:float ->
  unit ->
  profile
(** Missing fields default to 0.  Delays must be finite and
    non-negative; rates must lie in \[0, 1\].
    @raise Invalid_argument otherwise. *)

val is_disabled : profile -> bool
(** True when no event can ever be perturbed (every rate or its
    matching delay is zero). *)

val profile_to_json : profile -> string
(** Compact JSON object, e.g.
    [{"msg_delay":0.002,"msg_rate":0.25,"timer_delay":0,"timer_rate":0}]. *)

type t

val create : seed:int -> profile -> t
(** Fresh perturbation source drawing from the PRNG stream [seed]. *)

val perturbed : t -> int
(** Number of events actually delayed so far. *)

val hook : t -> Engine.klass -> delay:float -> float
(** The extra-delay function handed to {!Engine.set_perturb}.  Draws
    nothing from the PRNG for classes whose rate is 0, so a disabled
    axis stays invisible. *)

val attach : t -> Engine.t -> unit
(** [attach t engine] installs [hook t] on [engine] (replacing any
    previous hook). *)
