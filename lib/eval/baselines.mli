(** Alternative recovery strategies the paper compares against
    qualitatively (Section 8), made quantitative.

    {b Reactive re-establishment} ([BAN93]): no resources are reserved for
    fault tolerance; after a failure every disrupted connection tries to
    establish a brand-new channel from scratch on the surviving capacity.
    Cheap when nothing fails, but recovery is neither guaranteed (capacity
    contention, as in Figure 1) nor fast (full establishment round trip
    instead of one activation message).

    {b Slow-path re-establishment for BCP}: connections that lose every
    backup also fall back to re-establishment; combining both gives the
    total coverage of the proposed scheme. *)

type comparison = {
  model : Rfast.model;
  bcp_fast : float;  (** R_fast of the proposed scheme *)
  bcp_total : float;  (** fast + slow-path re-establishment *)
  reactive : float;  (** recovery rate of reactive re-establishment *)
  bcp_spare : float;  (** spare bandwidth %, proposed *)
  reactive_spare : float;  (** always 0 *)
}

val reactive_recovery_rate : Bcp.Netstate.t -> Rfast.model -> float
(** Recovery rate when every affected connection re-routes from scratch:
    for each scenario, disrupted connections (end-node failures excluded)
    release their old bandwidth and, in id order, attempt a fresh
    admissible route avoiding the failed components within their original
    QoS hop budget, on a copy of the network's pools, so the network
    state is left untouched.
    A sampled double-node model draws its scenarios with seed 7. *)

val bcp_total_recovery_rate : Bcp.Netstate.t -> Rfast.model -> float * float
(** (fast, fast+slow): fast recovery via backups plus re-establishment of
    the connections whose backups all failed.  A sampled double-node
    model draws its scenarios with seed 7. *)

val compare :
  ?seed:int -> ?double_sample:int -> Setup.network -> comparison list
(** All ordered pairs at 1 Mbps each: BCP with one backup at
    multiplexing degree 3 against reactive re-establishment without
    backups. *)

val report : Setup.network -> comparison list -> Report.t
