(** Time-critical control messages carried by the RCC network.

    An RCC message is "a combination of failure reports, activation
    messages, and acknowledgments"; resource-reconfiguration traffic
    (rejoin/closure) is excluded as non-time-critical and travels
    best-effort (Section 5.1). *)

type t =
  | Failure_report of {
      channel : int;  (** id of the failed channel *)
      component : Net.Component.t;  (** what failed *)
    }
  | Activation of {
      conn : int;  (** D-connection id *)
      serial : int;  (** backup serial number (multi-backup agreement) *)
      channel : int;  (** id of the backup channel being activated *)
    }
  | Mux_failure_report of {
      channel : int;  (** backup that lost its spare share *)
      link : int;  (** where the spare pool was exhausted *)
    }
  | Heartbeat of {
      node : int;  (** sending node *)
      beat : int;  (** monotonic per-link beat counter *)
    }
      (** Periodic keepalive used by the heartbeat failure detector; not
          part of the paper's message set but carried over the same RCCs
          so that detection itself is subject to loss and delay. *)

val size_bytes : t -> int
(** Wire size used for RCC aggregation against [S^RCC_max]. *)

val channel_of : t -> int
(** The channel the message concerns (dedup key together with the
    constructor); [-1] for heartbeats, which concern the link itself. *)
