(** Real-time Message Transmission Protocol: the runtime data plane.

    RMTP smooths bursty arrivals with a traffic regulator (token bucket)
    and services per-link output queues (Section 2).  The event-driven
    simulator uses this module to (i) release messages at their eligible
    times and (ii) compute per-hop forwarding delays, so that measured
    service-disruption times include realistic data-plane latencies. *)

(** Token-bucket regulator enforcing a channel's declared traffic. *)
module Regulator : sig
  type t

  val create : Traffic.t -> t

  val eligible_at : t -> now:float -> float
  (** Time at which the next message may enter the network: [now] if a
      token is available, else the moment one accrues.  Calling this
      consumes the token (the caller is committing to send). *)
end

(** Per-hop delay model for scheduled real-time messages. *)
module Hop_delay : sig
  type t = {
    propagation : float;  (** per-link propagation, seconds *)
    processing : float;  (** per-node forwarding cost, seconds *)
  }

  val default : t
  (** 10 µs propagation (≈ 2 km of fibre), 5 µs processing — LAN/MAN
      scale, matching the paper's multi-hop campus setting. *)

  val forwarding_delay :
    t -> Traffic.t -> link_capacity:float -> contention:int -> float
  (** Worst-case one-hop delay of a maximum-size message when
      [contention] same-priority messages may be ahead in the queue:
      transmission × (contention + 1) + propagation + processing.  This is
      the standard fixed-priority bound the paper's admission control
      family assumes. *)
end

val delay_test :
  Hop_delay.t ->
  Traffic.t ->
  Qos.t ->
  Net.Topology.t ->
  Net.Path.t ->
  contention:int ->
  bool
(** Does the path's worst-case delay (the sum of the per-hop
    {!Hop_delay.forwarding_delay} bounds) meet the channel's absolute
    bound?  Vacuously true when the client gave no bound (hop slack already
    enforced at routing time). *)
