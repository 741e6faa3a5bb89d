(** Resource reconfiguration after failure recovery (Section 4.4).

    Fast recovery leaves the network in a transitional state: activated
    backups still draw from shared spare pools, failed channels still hold
    reservations, and surviving backups may have lost multiplexing
    headroom.  This module commits a {!Recovery} outcome back into the
    {!Netstate} — the non-time-critical work the paper assigns to
    rejoin-timer expiry and re-establishment:

    - failed primaries are torn down (their bandwidth released),
    - each activated backup becomes the connection's new primary: its
      bandwidth moves from the shared spare pools to a dedicated primary
      reservation and its multiplexing registrations are removed,
    - backups disabled by the failures or by multiplexing failures are
      closed (unregistered),
    - spare pools are re-derived from the surviving registrations, and
    - optionally, replacement backups are routed for every connection that
      lost protection, restoring its fault-tolerance level for future
      failures. *)

type summary = {
  promoted : int;  (** backups that became primaries *)
  torn_down : int;  (** failed primaries released *)
  closed_backups : int;  (** broken/mux-failed backups unregistered *)
  replacements_added : int;
  replacements_failed : int;
      (** connections left unprotected (no admissible disjoint route) *)
  unrecovered : int;  (** connections needing full re-establishment *)
}

val commit :
  ?restore_protection:bool ->
  Netstate.t ->
  failed:Net.Component.t list ->
  result:Recovery.result ->
  summary
(** Apply the outcome of [Recovery.simulate ns ~failed] to [ns].
    [restore_protection] (default true) routes one replacement backup per
    promoted or unprotected connection at the connection's original
    multiplexing degree, avoiding the failed components.

    Connections whose primary failed and that did not recover are removed
    from the network entirely (the paper: a new channel must be
    established from scratch; that is the client's next request). *)

val protection_deficit : Netstate.t -> (int * int) list
(** Connections with fewer standby backups than originally requested:
    (conn id, missing count).  Useful to drive background re-provisioning
    loops. *)
