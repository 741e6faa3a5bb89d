(** Real-time Network Manager Protocol: admission, establishment and
    teardown of primary real-time channels (Section 2).

    Routes primaries, issues their channel ids in increasing order and
    reserves their bandwidth.  Which channel sits where is kept above this
    layer by BCP's netstate, as are the backups; RNMP only sees the
    primaries' bandwidth (a backup "costs nothing" until activation, the
    spare pool is sized by BCP). *)

type t

val create : Net.Topology.t -> t

val resources : t -> Resource.t

type reject_reason =
  | No_route  (** no admissible path within the QoS hop budget *)
  | No_bandwidth  (** a route exists but reservation failed *)

val pp_reject : Format.formatter -> reject_reason -> unit

val establish :
  ?reference:bool ->
  t ->
  src:int ->
  dst:int ->
  traffic:Traffic.t ->
  qos:Qos.t ->
  (Channel.t, reject_reason) result
(** Route + reserve.  The route is the shortest path among
    links with enough free bandwidth, within the QoS hop budget relative
    to the *unconstrained* shortest route.  [reference] is passed on to
    the {!Routing.Shortest} searches. *)

val establish_on_path :
  t -> path:Net.Path.t -> traffic:Traffic.t -> qos:Qos.t ->
  (Channel.t, reject_reason) result
(** Reserve on a caller-chosen path (used by BCP activation,
    which converts a backup's spare share into a dedicated reservation). *)

val teardown : t -> Channel.t -> unit
(** Release the channel's bandwidth.  Not idempotent: each established
    channel is torn down at most once (BCP's netstate guards this). *)
