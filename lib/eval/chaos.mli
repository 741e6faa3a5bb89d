(** Chaos evaluation: failure recovery under hostile control planes.

    The paper's recovery guarantees (Sections 4–5) are argued for an
    unreliable network: RCC messages may be lost or duplicated, and
    detection is local to the failed component's neighbours.  This module
    quantifies that robustness — it sweeps {!Failures.Impair} levels
    (loss, duplication, jitter, gray-failure fraction) over seeded
    single-link failure scenarios and reports R_fast, service-disruption
    time, and RCC message overhead per impairment level, under either the
    detection oracle or the heartbeat detector. *)

type level = {
  label : string;
  loss : float;  (** per-copy control-message drop probability *)
  dup : float;  (** duplication probability *)
  jitter : float;  (** max extra per-hop delay, seconds *)
  gray_frac : float;  (** fraction of links silently dropping everything *)
}

val level :
  ?dup:float -> ?jitter:float -> ?gray_frac:float -> float -> level
(** [level loss] with a generated label. *)

type outcome = {
  level : level;
  scenarios : int;
  affected : int;  (** non-excluded connections whose primary died *)
  recovered : int;  (** resumed on a validated, fully activated backup *)
  r_fast : float;  (** percentage recovered *)
  mean_disruption : float;  (** seconds from failure to source resumption *)
  p99_disruption : float;
  rcc_sent : int;  (** RCC messages incl. retransmissions and heartbeats *)
  rcc_dropped : int;  (** RCC messages abandoned after max retransmits *)
  hb_confirms : int;
  hb_recoveries : int;
}

val run :
  ?obs:Telemetry.collector ->
  ?seed:int ->
  ?scenario_count:int ->
  ?horizon:float ->
  ?detector:[ `Oracle | `Heartbeat ] ->
  ?levels:level list ->
  Bcp.Netstate.t ->
  outcome list
(** Simulate every level over the same seeded set of single-link
    scenarios on an established network.  The default [levels] are a
    clean baseline, a 5→30% loss ladder (with proportional duplication
    and jitter), and two gray-failure mixes.  [horizon] is how long each
    run is driven past the fault (default 250 ms, safely below the
    rejoin timer).  With [obs], every simulation records typed telemetry,
    added to the collector under a level-major tag
    ([level_index * scenario_count + scenario_index]), so every simulated
    run keeps a distinct stream. *)

val report : outcome list -> Report.t
(** Tabulate outcomes under the title "Chaos sweep: recovery vs
    control-plane impairment". *)

val sweep :
  ?obs:Telemetry.collector ->
  ?seed:int ->
  ?scenario_count:int ->
  ?horizon:float ->
  ?detector:[ `Oracle | `Heartbeat ] ->
  ?levels:level list ->
  Setup.network ->
  Report.t
(** Build the standard evaluation network (one backup per connection,
    multiplexing degree 3), {!run}, and tabulate.  [obs]
    observes both: establishment through {!Setup.build}, then the
    sweep. *)
