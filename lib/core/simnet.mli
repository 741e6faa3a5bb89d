(** Event-driven BCP simulator: the driver of {!Node}.

    Runs one {!Node} handler over an established {!Netstate} on a
    {!Sim.Engine}, with a pair of RCCs on every link, oracle or heartbeat
    failure detection, fault injection and the typed telemetry plane.
    The protocol itself, and the observers of its channel states and
    spare pools, are {!Node}'s; {!node} gives them this run's state. *)

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

    The handler's {!Node.template} is built on the first [create] for a
    netstate and cached under (physical netstate,
    {!Netstate.generation}), so later [create]s for the same generation
    reuse it, on any domain; several live simulations over one netstate
    stay independent.

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
val trace : t -> Sim.Trace.t
(** The run's typed event stream, its only record of protocol steps
    (empty unless [~telemetry:true]). *)

val node : t -> Sim.Engine.handle Node.t
(** The protocol state this run drives, for {!Node}'s observers. *)

val metrics : t -> Sim.Metrics.t
(** The run's metric registry (empty unless [~telemetry:true]). *)

(** {2 Fault injection} *)

val fail_link : t -> at:float -> int -> unit
val fail_node : t -> at:float -> int -> unit
(** A failed node silences its daemon and kills all incident links. *)

val repair_link : t -> at:float -> int -> unit
val repair_node : t -> at:float -> int -> unit

val inject : t -> at:float -> Failures.Scenario.t -> unit

val run : until:float -> t -> unit
(** Drive the event loop to simulated time [until].  Under
    [Protocol.Heartbeat] detection the keepalive streams never cease, so
    a run has no natural end. *)

(** {2 Observations} *)

type record = Node.record
(** Per-connection recovery measurements (see {!Node.record}). *)

val records : t -> record list
(** One record per connection whose primary was disabled, sorted by
    connection id.  Call {!finalize} first so [recovered_serial] is
    validated. *)

val finalize : t -> unit
(** Validate activations: for each record, set [recovered_serial] to the
    serial of a backup whose every node is in state [P].  With telemetry
    on, also observe the phase timers ([phase.detect], [phase.report],
    [phase.activate], [phase.switch]) once — repeated calls do not
    double-count. *)

val alive : t -> Net.Component.t -> bool
(** Effective health: a node is alive until it fails; a link, while it
    has not failed and both its endpoints are alive. *)

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

val heartbeat_confirms : t -> int
(** Heartbeat-mode failure confirmations (receiver miss-threshold plus
    sender ack-exhaustion), including false positives on gray or
    flapping links. *)

val heartbeat_recoveries : t -> int
(** Times a confirmed-dead link produced a heartbeat again (repair or
    false positive). *)
