(** D-connection establishment (Sections 3.2–3.4).

    Channels are routed by sequential shortest-path search: the primary
    over a shortest admissible path, then each backup disjointly from the
    primary and from earlier backups, every path within the QoS hop
    budget.  One banned-component mask per backup route (the interiors
    of the connection's other channels, plus any components to avoid)
    serves its feasibility hop count, its search and, under
    {!Min_spare_increment}, its link costs.  Spare bandwidth for backups
    is admitted and reserved through the multiplexing engine.
    Connections are established one at a time: each request is routed
    against the state its predecessors left.  Every admission check of
    a link, in the primary search and in each backup search, adds one to
    the [Sim.Prof] counter [establish.admission_checks]; a {!Min_hops}
    backup search probes a link before testing the mask.

    Two client interfaces are provided, mirroring Section 3.4:
    {!establish} (the "loose" scheme: the client fixes the backup count
    and multiplexing degree; {!achieved_pr} reports the resulting P_r
    back, and the client may reject it with [Netstate.remove_dconn]) and
    {!establish_with_reliability} (the negotiated scheme: the client
    states a required P_r; BCP picks the largest multiplexing degree —
    and, if needed, extra backups — that satisfies it). *)

(** How backup paths are selected among admissible routes. *)
type backup_routing =
  | Min_hops
      (** the paper's sequential shortest-path search (default) *)
  | Min_spare_increment
      (** the [HAN97b] extension: minimise the additional spare bandwidth
          the backup forces the network to reserve, within the same QoS
          hop budget *)

type request = {
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  backups : int;  (** number of backup channels to establish *)
  mux_degree : int;  (** α in ν = α·λ; 0 disables multiplexing *)
}

type reject =
  | Primary_rejected of Rtchan.Rnmp.reject_reason
  | Backup_rejected of int
      (** serial of the backup that could not be routed/admitted *)
  | Reliability_unreachable of float
      (** best achievable P_r when the requirement cannot be met *)

val pp_reject : Format.formatter -> reject -> unit

val establish :
  ?reference:bool ->
  ?backup_routing:backup_routing ->
  Netstate.t ->
  conn_id:int ->
  request ->
  (Dconn.t, reject) result
(** All-or-nothing: on any rejection the network state is rolled back.
    [reference] is passed on to every {!Routing.Shortest} search, so
    [~reference:true] routes the same paths without oracle pruning. *)

val establish_with_reliability :
  ?max_backups:int ->
  Netstate.t ->
  conn_id:int ->
  src:int ->
  dst:int ->
  traffic:Rtchan.Traffic.t ->
  qos:Rtchan.Qos.t ->
  pr_required:float ->
  (Dconn.t * float, reject) result
(** Negotiated scheme; returns the connection and its achieved P_r.
    [max_backups] defaults to 3. *)

val achieved_pr : Netstate.t -> Dconn.t -> float
(** Combinatorial P_r of an established connection from the live
    multiplexing tables (uses the P_muxf upper bound, so this is a lower
    bound on the true P_r). *)

val add_backup :
  ?avoid_components:Net.Component.t list ->
  Netstate.t ->
  Dconn.t ->
  mux_degree:int ->
  (Dconn.backup, reject) result
(** Route and register one more backup for an existing connection,
    disjoint from its primary and its standby or activated backups and
    steering clear of [avoid_components] (used by resource
    reconfiguration after failures, which must not route replacements
    over dead components).  A component outside the topology lies on no
    path and is ignored. *)
