(** The per-node BCP protocol of Section 4, independent of any simulator.

    One handler runs the rules every BCP daemon applies to the channels
    crossing its node: failure detection at neighbours, hop-by-hop
    failure reporting over healthy path segments, backup activation
    (Schemes 1/2/3, optional priority modes), spare-pool draws with
    multiplexing failures and optional preemption, and soft-state
    resource reconfiguration (rejoin timers, rejoin-request/rejoin
    repair, closure).  Per-connection records measure each recovery
    against the Section 5.3 bound.

    The handler sends, schedules and observes only through a {!ctx}, so
    it runs under the event-driven {!Simnet} or a test's hand-driven
    fake alike. *)

val fits : float array -> int array -> float -> bool
(** [fits pools links bw]: every link of [links] has [bw] left in its
    spare pool [pools.(l)], up to a 1e-9 float slack.  With {!draw}, the
    spare-pool rule of {!Recovery}; the handler applies the same rule to
    each link it activates. *)

val draw : float array -> int array -> float -> unit
(** [draw pools links bw] subtracts [bw] from the pool of every link of
    [links]. *)

type template
(** Every channel's entry at every node of its path, every end node's
    view of its connection and the spare pools, as they stand in one
    netstate generation.  Never written once built: handlers on any
    domains may share one. *)

val template : Netstate.t -> template

(** What the handler needs from whoever runs it; ['h] is a timer
    handle. *)
type 'h ctx = {
  now : unit -> float;
  rcc_send : from_node:int -> to_node:int -> Rcc.Control.t -> unit;
      (** a time-critical message to a neighbour, over their RCC *)
  be_send : from_node:int -> to_node:int -> Protocol.be_message -> bool;
      (** best-effort to a neighbour; [false] when the link cannot carry
          it now (the sender holds and retries) *)
  set_timer : float -> (unit -> unit) -> 'h;  (** run after a delay *)
  cancel_timer : 'h -> unit;
  node_alive : int -> bool;
  telemetry : bool;  (** read before any event is built *)
  emit : Sim.Event.t -> unit;
      (** called only when [telemetry] holds; the typed stream is the
          handler's only observation channel *)
}

type 'h t
(** One run's protocol state over a template: channel states, rejoin
    timers, end-node views, spare-pool draws and records. *)

val create : 'h ctx -> Protocol.config -> Netstate.t -> template -> 'h t
(** The template must be [template ns].  The netstate is written only by
    rejoin-timer expiry under [config.reconfigure_netstate]. *)

(** What reaches one node's daemon. *)
type input =
  | Detect of Net.Component.t  (** the node noticed an adjacent fault *)
  | Control of { from_ : int; msg : Rcc.Control.t }
      (** an RCC message from neighbour [from_]; heartbeats are the
          runner's and ignored here *)
  | Best_effort of Protocol.be_message

val handle : 'h t -> int -> input -> unit
(** [handle t node input] runs node [node]'s rules on [input]. *)

(** Per-connection recovery measurements. *)
type record = {
  conn : int;
  failure_time : float;  (** when the primary was first hit *)
  mutable excluded : bool;  (** an end node failed: unrecoverable *)
  mutable detected_at : float option;
      (** when a neighbour first detected the loss of the primary *)
  mutable src_informed : float option;
  mutable dst_informed : float option;
  mutable activated_at : float option;
      (** when an end node first committed to activating a backup *)
  mutable activations : (int * float) list;
      (** (serial, time) of each activation the source committed to,
          newest first *)
  mutable resumed_at : float option;
      (** when the source resumed sending (service disruption ends) *)
  mutable recovered_serial : int option;
      (** serial verified fully activated at the end of the run *)
}

val fault : 'h t -> Net.Component.t -> unit
(** A component just failed: open a record for every connection whose
    primary crosses it, excluded when the component is an end node. *)

val records : 'h t -> record list
(** One record per connection whose primary was disabled, by id. *)

val state_of : 'h t -> conn:int -> serial:int -> Protocol.chan_state list
(** The channel's state at every node along its path (source first). *)

val fully_activated : 'h t -> conn:int -> serial:int -> bool

val chan_state_at : 'h t -> node:int -> conn:int -> serial:int -> Protocol.chan_state
(** The channel's state at one node ([N] when the node holds no entry). *)

val pool_remaining : 'h t -> int -> float
(** Spare bandwidth left in a link's pool. *)

val active_serial_at_source : 'h t -> conn:int -> int option
(** Which channel currently carries the connection's traffic: the lowest
    serial in state [P] at the source node (the data plane sends on it). *)
