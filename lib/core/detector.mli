(** Per-link heartbeat failure-detector state machine.

    The paper assumes "each node can detect the failure of an adjacent
    component" (Section 3.1) but does not prescribe a mechanism; the
    simulator's original stand-in was an oracle that informs both
    endpoints a fixed [detection_latency] after the fault.  This module
    is the protocol-realistic replacement: each node sends periodic
    keepalives over every outgoing RCC, and the receiving neighbour runs
    one of these monitors per incoming link.

    Miss-counting state machine: [Healthy] --(suspect_misses missed
    periods)--> [Suspect] --(confirm_misses)--> [Confirmed], at which
    point the owner reports the link failed and BCP recovery starts.  A
    beat arriving in [Suspect] clears the suspicion; a beat arriving in
    [Confirmed] signals a false positive (e.g. a flapping link that came
    back) and re-arms the monitor.

    The module is pure bookkeeping — the owner decides when to call
    {!check} and what to do with the verdicts — so it is independently
    testable and reusable for node-level monitoring. *)

type params = {
  period : float;  (** keepalive interval, seconds *)
  suspect_misses : int;  (** missed periods before suspecting *)
  confirm_misses : int;  (** missed periods before confirming *)
}

val default_params : params
(** 2 ms period, suspect after 2 missed beats, confirm after 4 — i.e.
    confirmation ~8 ms after the last heartbeat got through. *)

type state = Healthy | Suspect | Confirmed

type t

val create : params -> now:float -> t
(** Fresh monitor; the link is presumed healthy and to have "beaten" at
    [now].
    @raise Invalid_argument on a non-positive period or miss counts with
    [confirm_misses < suspect_misses]. *)

val beat : t -> now:float -> [ `Fine | `Recovered ]
(** Record a received keepalive.  [`Recovered] means the monitor had
    already confirmed the failure: the owner should treat the link as
    repaired (false-positive handling). *)

val check : t -> now:float -> [ `Fine | `Suspected | `Confirmed ]
(** Evaluate the miss count at time [now].  [`Confirmed] fires at most
    once per failure episode (re-armed by {!beat}). *)

val state : t -> state
