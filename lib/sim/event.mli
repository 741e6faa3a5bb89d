(** Typed protocol telemetry events.

    The one vocabulary in which a run is observed: emitted (when
    enabled) by the BCP daemons, the RCC transports and the multiplexing
    engine, recorded by {!Trace}, fed to {!Monitor}, and consumed by the
    exporters (JSONL event logs, Chrome [trace_event] files) and the
    metrics registry.

    Events carry plain integers so the vocabulary can live below every
    protocol layer; the string codecs ([*_to_string] / [*_of_string]) are
    total inverses of each other and are what the JSON encoders use. *)

(** Per-node channel states ([Bcp.Protocol.chan_state] is this type). *)
type chan_state = N | P | B | U

val chan_state_to_string : chan_state -> string
val chan_state_of_string : string -> chan_state option

(** Lifecycle of one RCC message on one link. *)
type rcc_op = Send | Retransmit | Deliver | Ack | Drop

val rcc_op_to_string : rcc_op -> string
val rcc_op_of_string : string -> rcc_op option

(** Heartbeat failure-detector transitions ([Clear] = a confirmed-dead
    link produced a beat again: repair or false positive). *)
type detector_signal = Suspect | Confirm | Clear

val detector_signal_to_string : detector_signal -> string
val detector_signal_of_string : string -> detector_signal option

(** Soft-state rejoin-timer lifecycle (Section 4.4). *)
type timer_op = Started | Cancelled | Expired

val timer_op_to_string : timer_op -> string
val timer_op_of_string : string -> timer_op option

type mux_op = Register | Unregister

val mux_op_to_string : mux_op -> string
val mux_op_of_string : string -> mux_op option

(** Connection-lifecycle steps emitted by the churn workload driver:
    [Arrive] = an admission request hit the network, [Admit]/[Block] =
    its outcome, [Depart] = a holding time expired and the connection was
    torn down, [Readmit] = a connection displaced by a failure was
    re-established under a fresh id. *)
type lifecycle_op = Arrive | Admit | Block | Depart | Readmit

val lifecycle_op_to_string : lifecycle_op -> string
val lifecycle_op_of_string : string -> lifecycle_op option

type component = Node of int | Link of int

type t =
  | Chan_transition of {
      node : int;
      channel : int;
      from_ : chan_state;
      to_ : chan_state;
      cause : string;
          (** what moved the channel: "detect", "report", "mux-report",
              "preempted" or "mux-fail" (to U); "activate" (to P);
              "preempt" or "rejoin" (to B); "expire" or "closure" (to N) *)
    }
  | Rcc of { link : int; op : rcc_op; seq : int; bytes : int }
  | Detector of { node : int; link : int; signal : detector_signal }
  | Activation of { node : int; conn : int; serial : int; channel : int }
      (** an end node committed to a backup and started the activation
          wave *)
  | Rejoin_timer of { node : int; channel : int; op : timer_op }
  | Mux of { link : int; backup : int; op : mux_op; pi : int; psi : int }
      (** multiplexing-table update with the resulting |Π| and |Ψ| of the
          backup on that link *)
  | Fault of { component : component; up : bool }
  | Lifecycle of { conn : int; op : lifecycle_op; active : int }
      (** connection-lifecycle step from the churn driver, with the
          number of connections active after the step *)

val type_tag : t -> string
(** Stable constructor tag: "chan", "rcc", "detector", "activation",
    "rejoin-timer", "mux", "fault", "lifecycle". *)

val to_string : t -> string
