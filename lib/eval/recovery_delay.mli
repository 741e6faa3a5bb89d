(** Measured failure-recovery delay vs. the Section 5.3 bound (and the
    Scheme 1/2/3 comparison of Section 4.2).

    For a sample of single-component failures, the event-driven simulator
    runs the full protocol and records each disrupted connection's service
    resumption time.  The measured delay (counted from detection, as the
    bound assumes instant detection) is compared against
    Γ ≤ (K−1)·D^RCC_max + 2(b−1)(K−1)·D^RCC_max. *)

type stats = {
  scheme : Bcp.Protocol.scheme;
  scenarios : int;
  samples : int;  (** recovered connections measured *)
  unrecovered : int;
  mean : float;
  p50 : float;
  p99 : float;
  max : float;
  mean_bound : float;
  within_bound_pct : float;
  rcc_sent : int;  (** RCC messages across all scenarios *)
}

val scheme_label : Bcp.Protocol.scheme -> string

val measure :
  ?obs:Telemetry.collector ->
  ?seed:int ->
  ?scenario_count:int ->
  ?node_failures:bool ->
  Bcp.Netstate.t ->
  stats
(** Samples [scenario_count] (default 16) single-link (plus single-node
    when [node_failures], default true) scenarios, one fresh protocol
    simulation each, under {!Bcp.Protocol.default_config}.  With [obs],
    every simulation records typed telemetry, added to the collector
    under its scenario index. *)

(** {2 Telemetry}

    The phase decomposition of each recovery, per Section 4's pipeline:
    [detect] (component loss noticed by a neighbour, counted from the
    failure instant), [report] (failure report reaches the first end
    node), [activate] (end node commits to a backup) and [switch]
    (activation wave completes and the source resumes sending). *)

type phase_stats = {
  samples : int;
  p50 : float;
  p95 : float;
  max : float;  (** seconds *)
}

type phases = {
  detect : phase_stats;
  report : phase_stats;
  activate : phase_stats;
  switch : phase_stats;
}

val phases_of_snapshot : Sim.Metrics.snapshot -> phases
(** Extract the phase breakdown from any metrics snapshot carrying the
    [phase.*] timers (all-zero rows for missing timers), such as
    {!Telemetry.metrics} of any experiment's collector. *)

val report : stats list -> Report.t

val phases_report : phases -> Report.t
(** Rows detect/report/activate/switch; delay columns in ms. *)

val phases_to_json : phases -> Json.t
(** Durations in seconds (raw floats, not rendered strings). *)

val compare_schemes :
  ?seed:int -> ?scenario_count:int -> Bcp.Netstate.t -> Report.t
(** Rows: Scheme 1, 2, 3; columns: delay statistics. *)
