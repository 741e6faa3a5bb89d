(** Static failure-recovery engine: given an established network and a set
    of failed components, decide which D-connections recover fast via
    backup activation (the paper's R_fast metric, Tables 1–3).

    Activation draws bandwidth from each link's spare pool; when a pool
    runs dry the remaining activations on that link suffer *multiplexing
    failures*.  Connections whose end nodes fail are excluded, exactly as
    in Section 7.2.  The engine only reads the network state: activations
    draw from a per-domain overlay on the spare pools, never from the
    netstate itself.  Many failure scenarios can therefore be evaluated on
    one established network, and {!simulate} and {!affected_conns} may run
    concurrently on several domains over one shared netstate (as long as
    nothing mutates it meanwhile).

    A scenario's work is proportional to what the failure touches, read
    from the failed components' own indexes.  The affected connections
    come from {!Netstate.conns_with_primary_on}, already in ascending
    channel-id order, so no sort is needed.  The backups
    broken by the failure are the ones {!Netstate.backups_using} lists on
    the failed components.  They are stamped with the scenario's epoch, and
    a standby backup is healthy iff it is unstamped, so no candidate
    backup's path is walked.  On the 20 480 single-link and single-node
    scenarios of the loaded 64×64 torus (perfbench rfast64), a scenario
    takes ≈12 µs in-process, against ≈21 µs when each candidate backup's
    path was walked and the affected channels sorted (2-vCPU Xeon,
    OCaml 5.1.1, dev profile).  Pool loading, fit and draw over the
    tried backups' links are most of what is left. *)

(** Order in which failed connections attempt activation. *)
type order =
  | By_id  (** establishment order (deterministic default) *)
  | Shuffled of Sim.Prng.t  (** random contention order *)
  | By_priority
      (** ν ascending: higher-priority (smaller-ν) connections first —
          models the priority-based activation of Section 4.3 *)

type conn_outcome =
  | Recovered of int  (** serial of the activated backup *)
  | Mux_failure  (** healthy backup(s) existed but spare pools ran dry *)
  | No_healthy_backup  (** every backup was hit by the failures (or none) *)

type result = {
  affected : int;  (** failed primaries considered (end-node cases excluded) *)
  excluded : int;  (** connections dropped because an end node failed *)
  recovered : int;
  mux_failures : int;
  no_healthy_backup : int;
  outcomes : (int * conn_outcome) list;  (** conn id -> outcome *)
  per_degree : (int * (int * int)) list;
      (** mux degree -> (affected, recovered), ascending degree *)
}

val r_fast : result -> float
(** 100 × recovered / affected; 100 when nothing was affected. *)

val r_fast_of_degree : result -> int -> float
(** R_fast restricted to connections of one multiplexing degree
    (Table 2); 100 when none were affected. *)

val simulate :
  ?order:order -> Netstate.t -> failed:Net.Component.t list -> result
(** Activate the affected connections' healthy standby backups one
    connection at a time in [order], each drawing its bandwidth from every
    link of the first backup whose links all still have it.  A scenario
    allocates only in proportion to the connections it affects.  Each
    call adds to the [Sim.Prof] counters [recovery.scenarios],
    [recovery.affected], [recovery.excluded], [recovery.backups_tried]
    (healthy standby backups whose pools were tested) and
    [recovery.activations]. *)

val affected_conns :
  Netstate.t -> failed:Net.Component.t list -> Dconn.t list * int
(** Connections whose primary is disabled (excluded end-node failures
    removed), and the number excluded.  They are listed in [failed]
    order, by ascending primary channel id within one component, each at
    its first occurrence. *)
