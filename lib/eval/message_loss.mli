(** Figure 8: message loss during failure recovery.

    A monitored connection streams messages while its primary fails; the
    messages in flight toward the failure and those sent during the
    reporting/activation window are lost, after which the stream resumes
    on the activated backup.  The experiment sweeps the failure position
    along the primary path: failures near the source are detected by the
    source itself and lose almost nothing, failures near the destination
    pay the full reporting delay — exactly the gradient of Section 5.3. *)

type row = {
  fail_position : int;  (** index of the failed link on the primary path *)
  sent : int;
  delivered : int;
  lost : int;
  loss_window : float option;  (** send-time span of lost messages, s *)
  disruption : float option;  (** failure -> source resumption, s *)
  mean_latency : float;  (** delivered messages, s *)
}

val run : ?seed:int -> Setup.network -> row list
(** Builds the network with background traffic (mux=3), picks a
    connection with at least 6 primary hops (4 if there is none), and
    runs one protocol simulation per failure position at 2000 msg/s (a
    16 Mbps stream of 1 kB messages). *)

val report : row list -> Report.t
