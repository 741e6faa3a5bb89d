(** Online protocol auditor: a streaming invariant checker over the typed
    telemetry flow ({!Event.t}).

    The monitor subscribes to the same event stream the exporters see (no
    extra instrumentation points) and maintains per-channel, per-link and
    per-connection {e shadow state} to check, as each event arrives:

    + {b Channel state machine} — every N/P/B/U transition must be legal
      for its cause, and the event's [from_] state must agree with the
      shadow state (Section 4.1's per-node channel automaton).
    + {b Link budgets} — with a {!context}, cumulative spare-pool draws
      from backup activations never exceed the link's reserved spare
      (Section 3.2's multiplexing rule), the reserved spare stays inside
      the [max bw, Σ bw] bracket implied by the registered backups, and
      reserved + spare never exceeds capacity.
    + {b Single activation} — at most one backup of a D-connection is in
      state [P] at a node when a new activation commits, and every
      activation is preceded by a reported failure (Section 4.2).
    + {b Phase ordering} — detect ≤ report ≤ activate ≤ switch within
      each recovery (Section 4's pipeline).
    + {b Rejoin timers} — started at most once while running, fire at
      most once, and only for soft-state (state [U]) entries
      (Section 4.4).

    Violations are typed values collected into a report; [~fail_fast]
    raises {!Violation} on the first one instead.  The monitor never
    influences the simulation: feeding it is observation only. *)

(** {1 Violations} *)

type kind =
  | Illegal_transition  (** N/P/B/U move not allowed for its cause *)
  | State_mismatch  (** event [from_] disagrees with the shadow state *)
  | Spare_overdraw  (** activation draws exceed the link's spare pool *)
  | Mux_bound  (** reserved spare outside the [max bw, Σ bw] bracket *)
  | Capacity_exceeded  (** reserved + spare > link capacity *)
  | Double_activation  (** second backup activated while one is live *)
  | Activation_without_failure  (** activation with no reported failure *)
  | Phase_order  (** detect/report/activate/switch order inverted *)
  | Timer_misfire  (** rejoin timer double-start/fire, or fired on
                       a non-soft-state entry *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type violation = {
  kind : kind;
  index : int;  (** 0-based position in the fed event stream *)
  time : float;
  conn : int option;
  link : int option;
  node : int option;
  channel : int option;
  expected : string;
  actual : string;
}

exception Violation of violation
(** Raised by {!feed} (or {!finish}) in [~fail_fast] mode. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Network context}

    Optional static facts about the audited network.  Live runs derive
    one from the established netstate; replaying a bare trace without a
    context silently skips the link-budget checks (and the shadow channel
    states are adopted from the first event that mentions them). *)

type link_ctx = {
  capacity : float;  (** link capacity, Mbps *)
  reserved : float;  (** bandwidth reserved by primaries *)
  spare : float;  (** spare pool reserved for backup activation *)
}

type chan_ctx = {
  channel : int;  (** channel id as carried by events *)
  cc_conn : int;
  cc_serial : int;  (** 0 = primary *)
  bw : float;
  nodes : int array;  (** path nodes, source first *)
  links : int array;  (** path links, [links.(i)] out of [nodes.(i)] *)
}

type context = {
  link_ctx : link_ctx array;
  chan_ctx : chan_ctx list;
  mux_bw : (int * float) list;
      (** bandwidth of each registered backup keyed by its network-wide
          backup id (the [backup] field of {!Event.Mux} events — a
          different id space than channel ids) *)
}

(** {1 Monitoring} *)

type t

val create :
  ?context:context ->
  ?decode_channel:(int -> int * int) ->
  ?fail_fast:bool ->
  unit ->
  t
(** [decode_channel] maps a channel id to its [(conn, serial)] pair (the
    protocol layer's cid codec); without it — and without a context —
    the connection-level checks degrade to what activation events alone
    reveal. *)

val feed : t -> time:float -> Event.t -> unit
(** Check one event and advance the shadow state.  Events must be fed in
    recording order (one monitor per simulation run — shadow state does
    not transfer across runs). *)

val feed_rcc : t -> Event.rcc_op -> unit
(** [feed_rcc t op] is [feed t ~time (Rcc {op; _})] for any time, link,
    seq and byte count: the monitor only counts RCC steps and marks their
    op covered, so the fields need not be built. *)

val finish : t -> unit
(** End-of-stream checks: unresolved switch-before-activation pendings
    and the static link-budget audit (mux bracket, capacity).  Idempotent
    w.r.t. the streaming checks; call once after the last {!feed}. *)

val events_seen : t -> int
val violations : t -> violation list
(** In detection order. *)

(** {1 Recovery timelines} *)

type timeline = {
  tl_conn : int;
  fault_at : float option;  (** component failure hitting the primary *)
  detect_at : float option;  (** first local detection (cause [detect]) *)
  report_at : float option;  (** first propagated report (cause [report]) *)
  activate_at : float option;  (** first activation commit *)
  switch_at : float option;  (** source resumes on the backup *)
}

val timelines : t -> timeline list
(** One per connection that saw recovery activity, sorted by connection
    id.  Phases missing from the stream are [None]. *)

(** {1 Coverage}

    The monitor doubles as the coverage oracle of the adversarial swarm
    ({!Eval.Swarm}): every behaviour it can distinguish becomes a key in
    a coverage set, and scenarios that light up new keys are worth
    mutating further. *)

val coverage : t -> string list
(** Sorted, duplicate-free coverage keys observed so far:
    - ["trans:<from>><to>:<cause>"] — a shadow-automaton transition
      (legal or not) was exercised, e.g. ["trans:B>P:activate"];
    - ["viol:<kind>"] — a violation of that kind fired;
    - ["outcome:<FDRAS>"] — a per-connection recovery timeline ended
      with this phase signature (one letter per phase reached, ["-"]
      for a phase never observed; only populated by {!finish});
    - ["rcc:<op>"], ["det:<signal>"], ["timer:<op>"], ["mux:<op>"],
      ["life:<op>"] — event families the monitor does not
      invariant-check per se, but whose occurrence distinguishes
      behaviours (a retransmission, a heartbeat confirm, a rejoin-timer
      expiry, a blocked churn arrival...). *)
