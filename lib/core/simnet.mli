(** Event-driven BCP protocol simulator.

    Instantiates one BCP daemon per node over an established {!Netstate},
    wires a pair of RCCs onto every link, and executes the full
    failure-recovery procedure of Section 4 with real message exchanges:
    failure detection at neighbours, hop-by-hop failure reporting over
    healthy path segments, backup activation (Schemes 1/2/3, optional
    priority modes), spare-pool draws with multiplexing failures and
    optional preemption, and soft-state resource reconfiguration (rejoin
    timers, rejoin-request/rejoin repair, closure).

    Service-disruption times are recorded per connection so the measured
    recovery delay can be compared against the Section 5.3 bound. *)

type t

val create :
  ?config:Protocol.config ->
  ?telemetry:bool ->
  ?monitor:Sim.Monitor.t ->
  Netstate.t ->
  t
(** Build daemons and RCCs for the current state of the network.  The
    netstate is not copied: with
    [config.reconfigure_netstate = true] the simulation writes back into
    it (see {!Protocol.config}).

    The per-node channel entries and end-node views come from an
    immutable channel template, built on the first [create] for a
    netstate and cached under (physical netstate,
    {!Netstate.generation}); later [create]s for the same generation
    reuse it, on any domain.  Each simulation keeps its own overlay of
    channel states, timers, views and spare-pool draws, so several live
    simulations over one netstate stay independent.

    [telemetry] (default [false]) turns on the typed observability
    plane: every channel-state transition, RCC message, detector signal,
    activation, rejoin-timer update, multiplexing update and fault is
    recorded as a {!Sim.Event.t} in the trace and counted in the
    {!metrics} registry, and {!finalize} adds the per-recovery phase
    breakdown (detect/report/activate/switch timers).  When off, every
    emission site reduces to a single boolean test, so simulation
    behaviour and all existing outputs are bit-for-bit unchanged.

    [monitor] attaches a {!Sim.Monitor.t} invariant checker to the same
    stream (implies [~telemetry:true]): every emitted event is fed to it
    as it happens, and {!finalize} runs its end-of-stream checks.  In
    [~fail_fast] mode the monitor's {!Sim.Monitor.Violation} exception
    propagates out of whichever simulation step broke the invariant. *)

val engine : t -> Sim.Engine.t
val netstate : t -> Netstate.t
val config : t -> Protocol.config
val trace : t -> Sim.Trace.t

val metrics : t -> Sim.Metrics.t
(** The run's metric registry (empty unless [~telemetry:true]). *)

(** {2 Fault injection} *)

val fail_link : t -> at:float -> int -> unit
val fail_node : t -> at:float -> int -> unit
(** A failed node silences its daemon and kills all incident links. *)

val repair_link : t -> at:float -> int -> unit
val repair_node : t -> at:float -> int -> unit

val inject : t -> at:float -> Failures.Scenario.t -> unit

val run : ?until:float -> t -> unit
(** Drive the event loop.  Under [Protocol.Heartbeat] detection the
    keepalive streams never cease, so [~until] is mandatory in practice
    (without it the run never quiesces). *)

(** {2 Observations} *)

(** Per-connection recovery measurements. *)
type record = {
  conn : int;
  failure_time : float;  (** when the primary was first hit *)
  mutable excluded : bool;  (** an end node failed: unrecoverable *)
  mutable detected_at : float option;
      (** when a neighbour first detected the loss of the primary *)
  mutable src_informed : float option;
  mutable dst_informed : float option;
  mutable activated_at : float option;
      (** when an end node first committed to activating a backup *)
  mutable activations : (int * float) list;
      (** (serial, time) of each activation the source committed to,
          newest first *)
  mutable resumed_at : float option;
      (** when the source resumed sending (service disruption ends) *)
  mutable recovered_serial : int option;
      (** serial verified fully activated at the end of the run *)
}

val records : t -> record list
(** One record per connection whose primary was disabled, sorted by
    connection id.  Call {!finalize} (or {!run} to quiescence) first so
    [recovered_serial] is validated. *)

val finalize : t -> unit
(** Validate activations: for each record, set [recovered_serial] to the
    serial of a backup whose every node is in state [P].  With telemetry
    on, also observe the phase timers ([phase.detect], [phase.report],
    [phase.activate], [phase.switch]) once — repeated calls do not
    double-count. *)

val state_of : t -> conn:int -> serial:int -> Protocol.chan_state list
(** The channel's state at every node along its path (source first). *)

val fully_activated : t -> conn:int -> serial:int -> bool

val pool_remaining : t -> int -> float
(** Spare bandwidth left in a link's pool. *)

val chan_state_at : t -> node:int -> conn:int -> serial:int -> Protocol.chan_state
(** The channel's state at one node ([N] when the node holds no entry). *)

val link_is_alive : t -> int -> bool
(** Effective link health: not failed and both endpoints alive. *)

val node_is_alive : t -> int -> bool

val active_serial_at_source : t -> conn:int -> int option
(** Which channel currently carries the connection's traffic: the lowest
    serial in state [P] at the source node (the data plane sends on it). *)

val rcc_messages_sent : t -> int
(** Total RCC messages transmitted (including retransmissions). *)

val control_messages_delivered : t -> int

val rcc_messages_dropped : t -> int
(** RCC messages abandoned after exhausting retransmissions. *)

(** {2 Control-plane impairment and heartbeat detection} *)

val set_impairment : t -> Failures.Impair.t -> unit
(** Attach a link-impairment model: every RCC message and hop-by-hop ack
    on every link is routed through {!Failures.Impair.decide}.  Attaching
    a model whose profiles impair nothing leaves a run bit-for-bit
    identical to an unimpaired one. *)

val detector_state : t -> int -> Detector.state option
(** The heartbeat monitor state for a link ([None] under the oracle
    detector or before the simulation is wired). *)

val heartbeat_confirms : t -> int
(** Heartbeat-mode failure confirmations (receiver miss-threshold plus
    sender ack-exhaustion), including false positives on gray or
    flapping links. *)

val heartbeat_recoveries : t -> int
(** Times a confirmed-dead link produced a heartbeat again (repair or
    false positive). *)
