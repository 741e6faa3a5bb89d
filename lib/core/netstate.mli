(** Central BCP network state: topology, primary-channel reservations
    (RNMP), the backup-multiplexing tables, the D-connection registry, and
    the only record of where connections sit: per link and per node, the
    connections whose primary holds its reservation there and the
    registered backups crossing it.

    Invariant: a registered connection's backup is in the {!Mux} tables
    of its path's links (and in {!backups_using}) iff its state is
    [Standby].  Whatever takes a backup out of [Standby] unregisters it
    ({!Reconfig} closing or promoting it, a soft-state teardown in
    {!Node}), and nothing registers it again.

    This is the "planning" layer shared by the static evaluation engine
    (Tables 1–3, Figure 9) and the event-driven protocol simulator. *)

(** How spare bandwidth is sized on each link. *)
type spare_policy =
  | Multiplexed
      (** the paper's scheme: per-link requirement from the Π-sets *)
  | Brute_force of float
      (** Section 7.4 baseline: the same fixed spare (Mbps) on every link,
          regardless of network status *)

type t

val create :
  ?lambda:float -> ?policy:spare_policy -> Net.Topology.t -> unit -> t
(** [lambda] defaults to 1e-4 (component failure probability per time
    unit); [policy] defaults to [Multiplexed]. *)

val generation : t -> int
(** Network-wide mutation counter.  Every mutator of this module bumps
    it: {!add_dconn}, {!remove_dconn}, {!release_primary},
    {!replace_primary}, {!register_backup} and {!unregister_backup}.
    State derived from the whole network and cached under (physical
    netstate, generation) — {!Simnet}'s channel template — is stale as
    soon as the generation moves. *)

val topology : t -> Net.Topology.t
val rnmp : t -> Rtchan.Rnmp.t
val resources : t -> Rtchan.Resource.t
val mux : t -> Mux.t
val lambda : t -> float
val policy : t -> spare_policy

val fresh_backup_id : t -> int

val add_dconn : t -> Dconn.t -> unit
(** Register an established connection (used by {!Establish}) and place
    its primary, whose bandwidth RNMP has just reserved, in the primary
    index.  Place it before RNMP issues the next channel id. *)

val remove_dconn : t -> int -> unit
(** Tear down a connection completely: the multiplexing registration of
    every [Standby] backup (the only ones still registered), the primary
    ({!release_primary}), and the registry entry. *)

val release_primary : t -> Dconn.t -> unit
(** Release the connection's primary bandwidth and take it out of the
    primary index; a registered connection stays registered.  Clears
    [primary_alive]; a no-op once it is clear, so releasing twice
    releases once.  Also rolls back a primary reserved for a connection
    that was never added. *)

val replace_primary : t -> Dconn.t -> Rtchan.Channel.t -> unit
(** Make a channel RNMP has just established the registered connection's
    primary (a promoted backup, Section 4.4), releasing the old primary if
    it still holds its reservation, so {!conns_with_primary_on} lists the
    connection newest on the new primary's components and no longer on
    the old one's. *)

val find : t -> int -> Dconn.t option
val dconns : t -> Dconn.t list

val register_backup :
  t -> Dconn.t -> Dconn.backup -> primary_components:int array -> unit
(** Enter a routed backup into the multiplexing tables of every link on
    its path and update the links' spare reservations per the policy.
    [primary_components] is {!Mux.encode_path} of the connection's
    primary, encoded once by the caller for its admission probes and
    this registration. *)

val unregister_backup : t -> Dconn.t -> Dconn.backup -> unit
(** Remove from the tables and shrink spare reservations accordingly. *)

val backup_admissible_probe : t -> Mux.probe -> link:int -> bool
(** Could the link absorb the {!Mux.probe}'s candidate without violating
    primary + spare ≤ capacity?  Always true under [Brute_force]. *)

val spare_pool : t -> float array
(** Snapshot of per-link spare bandwidth indexed by link id — the pools
    backups draw from during recovery. *)

val backups_using : t -> Net.Component.t -> (Dconn.t * Dconn.backup) list
(** Registered backups whose path crosses the component, newest first;
    [[]] for a component outside the topology.  Every [Standby] backup is
    listed on each node and link of its path.  The list is a fresh
    snapshot, so later mutations do not change it. *)

val conns_with_primary_on : t -> Net.Component.t -> Dconn.t list
(** Registered connections whose primary crosses the component and holds
    its reservation, by ascending primary channel id; [[]] for a component
    outside the topology. *)

val network_load : t -> float
val spare_fraction : t -> float
