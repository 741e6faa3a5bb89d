(** Message-level data plane over the protocol simulator.

    Reproduces the behaviour of Figure 8 (message loss during failure
    recovery): each monitored connection emits messages at its regulated
    rate; a message travels hop-by-hop along the channel that is primary
    *at the source when it is sent* (circuit semantics — it cannot be
    detoured mid-flight).  A message is lost when

    - no channel of its connection is active at the source (the service
      gap between failure detection and backup activation),
    - it reaches a dead link or node, or
    - it arrives at a node whose channel entry is not activated yet
      (footnote 6: "the data message will be discarded with no harm").

    Per-hop latency = queueing at the link transmitter + transmission +
    propagation + processing, using {!Rtchan.Link_scheduler} and
    {!Rtchan.Rmtp.Hop_delay}. *)

type stats = {
  conn : int;
  sent : int;
  delivered : int;
  lost_no_channel : int;  (** source had nothing active *)
  lost_dead_component : int;  (** hit a failed link/node *)
  lost_not_activated : int;  (** backup not yet switched at a hop *)
  first_loss : float option;  (** send time of the first lost message *)
  last_loss : float option;
  latencies : Sim.Stats.Sample.t;  (** delivery latencies, seconds *)
}

type t

val attach : Simnet.t -> t
(** Share the simulator's clock and state, with the per-hop delays of
    {!Rtchan.Rmtp.Hop_delay.default}; create before [Simnet.run]. *)

val stream :
  t ->
  conn:int ->
  rate:float ->
  start:float ->
  stop:float ->
  unit ->
  unit
(** Emit 1000-byte messages at [rate] per second during \[start, stop).
    @raise Invalid_argument for an unknown connection or bad interval. *)

val stats : t -> conn:int -> stats
(** @raise Not_found if no stream was attached for the connection. *)

val loss_count : stats -> int
