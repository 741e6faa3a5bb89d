(** Real-time Network Manager Protocol: admission, establishment and
    teardown of primary real-time channels (Section 2).

    Holds the channel registry and the per-link and per-node channel
    indexes: flat arrays indexed by link and node id.  Backup
    channels are managed above this layer by BCP; RNMP only sees the
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
(** Route + reserve + register.  The route is the shortest path among
    links with enough free bandwidth, within the QoS hop budget relative
    to the *unconstrained* shortest route.  [reference] is passed on to
    the {!Routing.Shortest} searches. *)

val establish_on_path :
  t -> path:Net.Path.t -> traffic:Traffic.t -> qos:Qos.t ->
  (Channel.t, reject_reason) result
(** Reserve + register on a caller-chosen path (used by BCP activation,
    which converts a backup's spare share into a dedicated reservation). *)

val teardown : t -> Channel.id -> unit
(** Release the channel's bandwidth and unregister it.  Unknown ids are
    ignored (teardown is idempotent, matching soft-state semantics). *)

val channel_count : t -> int

val channels_on_link : t -> int -> Channel.id list
(** Ids of the channels crossing the link, newest first (ids are issued
    in increasing order, so the list is strictly decreasing); [[]] for
    an unknown link. *)

val channels_through_node : t -> int -> Channel.id list
(** Ids of the channels whose path visits the node (end nodes included),
    newest first, so strictly decreasing; [[]] for an unknown node. *)
