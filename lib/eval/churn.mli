(** Steady-state churn evaluation: millions of connection lifecycles.

    Drives {!Workload.Churn}'s Poisson-arrival / exponential-holding
    lifecycle stream through the planning engine at a ladder of offered
    loads, interleaving transient single-link fault episodes run on the
    event-driven simulator (audited by {!Sim.Monitor} with full network
    context).  Connections that fail to recover within an episode's
    horizon are modelled as dropped and re-admitted under fresh ids.

    Each offered-load cell is fully self-contained — its own netstate and
    PRNG streams derived via {!Sim.Prng.derive} from the sweep seed — so
    cells run on the {!Sim.Pool} domain pool and the merged results are
    byte-identical for every [--jobs] setting. *)

type window = {
  w_end : float;  (** sim time at window close, seconds *)
  w_arrivals : int;
  w_blocked : int;
  w_departures : int;
  w_active : int;
  w_load : float;  (** network load, % *)
  w_spare : float;  (** spare reservation, % *)
  w_mux_entries : int;  (** Σ over links of mux registrations *)
  w_max_link_mux : int;  (** widest per-link mux table *)
  w_min_free : float;  (** tightest capacity − primary − spare, Mbps *)
}

type episode_violation = {
  ev_cell : int;
  ev_episode : int;  (** 1-based episode index within the cell *)
  ev_time : float;  (** time within the episode, seconds *)
  ev_kind : string;  (** {!Sim.Monitor.kind_to_string} *)
}

type outcome = {
  offered : float;  (** offered load, Erlangs per node *)
  events : int;  (** lifecycle events driven *)
  arrivals : int;
  admitted : int;
  blocked : int;
  departures : int;
  readmitted : int;  (** displaced connections re-admitted *)
  readmit_blocked : int;
  blocking : float;  (** % of arrivals blocked *)
  peak_active : int;
  final_active : int;
  episodes : int;
  affected : int;  (** connections hit across all episodes *)
  recovered : int;
  r_fast : float;  (** % recovered within the horizon *)
  p50_disruption : float;  (** service-disruption percentiles, seconds *)
  p95_disruption : float;
  p99_disruption : float;
  peak_mux_entries : int;  (** window-sampled peak Σ mux registrations *)
  final_mux_entries : int;
  min_free : float;  (** tightest link headroom seen, Mbps *)
  violations : episode_violation list;
  windows : window list;
}

val run :
  ?obs:Telemetry.collector ->
  ?seed:int ->
  ?events:int ->
  ?offered:float list ->
  ?mean_holding:float ->
  ?bandwidth:float ->
  ?hop_slack:int ->
  ?backups:int ->
  ?mux_degree:int ->
  ?fault_every:float ->
  ?horizon:float ->
  ?detector:[ `Oracle | `Heartbeat ] ->
  ?windows:int ->
  Setup.network ->
  outcome list
(** One outcome per offered-load level, in ladder order.  Defaults:
    seed 42, 20k events per cell, ladder [2; 4; 6] E/node, holding 50 s,
    1 Mbps, slack 2, 1 backup, mux degree 3, no fault episodes
    ([fault_every = 0]), horizon 0.25 s, oracle detector, 8 windows.
    With [obs], each cell adds, tagged with its ladder index, its
    lifecycle counters and events plus every fault episode's protocol
    metrics and trace, episode event times shifted to the cell's churn
    clock.
    @raise Invalid_argument on an empty ladder. *)

val summary_report : ?title:string -> outcome list -> Report.t
val windows_report : ?title:string -> outcome -> Report.t
(** Per-window time series for one cell.  Default title is
    ["Churn windows (<offered> E/node)"]; pass [?title] to disambiguate
    when several sweeps share an offered-load level (e.g. bench tiers,
    whose JSON tables are matched by title in the compare gate). *)

val report_to_json :
  seed:int ->
  events:int ->
  fault_every:float ->
  horizon:float ->
  detector:[ `Oracle | `Heartbeat ] ->
  network:Setup.network ->
  outcome list ->
  Json.t
(** Schema [bcp-churn/v1]. *)

val total_violations : outcome list -> int
