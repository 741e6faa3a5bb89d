(** BCP protocol definitions shared by the event-driven simulator:
    channel identifiers, channel-switching schemes, priority-activation
    modes, best-effort reconfiguration messages, and the protocol
    configuration knobs. *)

(** Failure-reporting / backup-activation schemes of Section 4.2, Fig. 5. *)
type scheme =
  | Scheme1
      (** downstream node reports to the channel destination; destination
          activates toward the source *)
  | Scheme2
      (** upstream node reports to the channel source; source activates
          toward the destination *)
  | Scheme3  (** hybrid: both ends are informed and activate (default) *)

(** Priority-based activation (Section 4.3). *)
type priority_mode =
  | No_priority
  | Delayed_activation of float
      (** activation wait slot in seconds; a backup with multiplexing
          degree α waits α·slot before its activation message is sent *)
  | Preemptive
      (** higher-priority (smaller ν) activations may preempt activated
          lower-priority backups when a spare pool runs dry *)

(** How neighbours learn that an adjacent component died (Section 3.1). *)
type detector_mode =
  | Oracle
      (** both endpoints are informed [detection_latency] after the fault
          — the original simulator stand-in, kept as the default *)
  | Heartbeat of Detector.params
      (** periodic keepalives over each RCC; a neighbour confirms a
          failure after the configured miss threshold, and the sender
          side confirms when retransmissions exhaust without an ack.
          Detection then emerges from (impairable) message exchange, and
          runs must be driven with [run ~until] since keepalives never
          cease. *)

type config = {
  scheme : scheme;
  priority : priority_mode;
  rcc : Rcc.Transport.params;  (** per-link RCC parameters *)
  detector : detector_mode;  (** how failures are detected *)
  detection_latency : float;  (** oracle failure-detection time at neighbours *)
  rejoin_timeout : float;  (** soft-state rejoin timer (Section 4.4) *)
  best_effort_delay : float;  (** per-hop delay of reconfiguration messages *)
  rejoin_retry : float;
      (** how often a node upstream of a dead component re-attempts to
          forward a held rejoin-request *)
  reconfigure_netstate : bool;
      (** when true, rejoin-timer expiry and closures update the shared
          {!Netstate} (multiplexing tables, backup states); keep false to
          run many scenarios against one established network *)
}

val default_config : config
(** Scheme 3, no priority, default RCC parameters, 0.1 ms detection,
    500 ms rejoin timer, 1 ms best-effort hops, no netstate mutation. *)

(** Channel identifiers: a D-connection's channels are numbered by serial,
    0 being the primary. *)

val cid : conn:int -> serial:int -> int
(** @raise Invalid_argument if serial is outside [0, 63]. *)

val conn_of_cid : int -> int
val serial_of_cid : int -> int

(** Per-node channel states of the BCP state machine (Fig. 4), as the
    typed event stream reports them. *)
type chan_state = Sim.Event.chan_state =
  | N  (** non-existent *)
  | P  (** healthy primary *)
  | B  (** healthy backup *)
  | U  (** unhealthy *)

(** Non-time-critical reconfiguration messages (excluded from the RCC,
    Section 5.1). *)
type be_message =
  | Rejoin_request of { channel : int }
  | Rejoin of { channel : int }
  | Closure of { channel : int }
