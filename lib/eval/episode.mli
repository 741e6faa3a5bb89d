(** One event-driven recovery episode, the sequence every protocol
    experiment runs: a {!Bcp.Simnet} over an established netstate, driven
    by one {!Failures.Plan.t} to a horizon, finalized, and read.

    {b Order and seed contract.}  Wiring the RCC transports starts the
    heartbeat streams, so the set-up order decides event sequence
    numbers.  In this order: the perturbation schedule is attached only
    when the plan's profile is not {!Sim.Schedule.is_disabled}; the
    impairment ({!Bcp.Simnet.set_impairment}) only when the profile
    impairs something or the plan has gray links; the faults in plan
    order, each repair right after its failure.  A plan built by
    {!Failures.Plan.of_scenario} runs exactly as {!Bcp.Simnet.inject} of
    its scenario would.  Chaos's clean level and swarm plans that impair
    nothing once attached a no-op impairment, wiring the transports
    before the faults; they now wire at the run's start, which only a
    heartbeat event and a fault at the same instant could tell apart. *)

type outcome = {
  records : Bcp.Simnet.record list;  (** finalized, in connection order *)
  affected : Bcp.Simnet.record list;  (** records not [excluded] *)
  recovered : (Bcp.Simnet.record * float) list;
      (** affected connections that resumed on a fully activated backup,
          each with its disruption (resumption − failure time) *)
  unrecovered : Bcp.Simnet.record list;  (** the other affected ones *)
  rcc_sent : int;
  rcc_delivered : int;
  rcc_dropped : int;
  hb_confirms : int;
  hb_recoveries : int;
  perturbed : int;  (** engine events delayed by the perturbation *)
  trace : Sim.Trace.t;
      (** the typed event stream (empty unless [obs] or [monitor]) *)
  run : Telemetry.run option;  (** registry and events, when observing *)
}

val config : [ `Oracle | `Heartbeat ] -> Bcp.Protocol.config
(** {!Bcp.Protocol.default_config} with the named failure detector (the
    heartbeat one with {!Bcp.Detector.default_params}). *)

val run :
  ?obs:Telemetry.collector ->
  ?monitor:Sim.Monitor.t ->
  ?seeds:int * int ->
  config:Bcp.Protocol.config ->
  until:float ->
  Bcp.Netstate.t ->
  Failures.Plan.t ->
  outcome
(** Run one episode of [plan] until simulated time [until].  [seeds] is
    the (impairment, perturbation) PRNG seed pair, default [(0, 0)]; it
    matters only when the plan impairs or perturbs.  With [obs] the run
    records typed telemetry and [run] holds it, for the caller to
    {!Telemetry.add} under its own tag; [obs] is only tested, never
    written, so episodes run safely on {!Sim.Pool} domains, but it also
    turns [trace] on.  [monitor] audits the event stream as it
    happens. *)
