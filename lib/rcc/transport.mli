(** Single-hop real-time control channel (RCC) transport.

    One RCC per simplex link (Section 5.1).  Outgoing control messages
    are collected by the BCP daemon, packed into RCC messages of at most
    [S^RCC_max] bytes released no faster than [R^RCC_max] per second, and
    delivered within [D^RCC_max].  Each RCC message carries a sequence
    number and is acknowledged hop-by-hop; unacknowledged messages are
    retransmitted, and duplicates are discarded by the receiver.  The
    first acknowledgment cancels the message's retransmit timer, so an
    acked message leaves no event behind.

    Both the RCC message and its hop-by-hop acknowledgment traverse an
    optional {!impairment} hook, so probabilistic loss, duplication and
    jitter (e.g. {!Failures.Impair}) exercise the full
    retransmit/ack/dedup machinery.  Without a hook, delivery is the
    deterministic legacy behaviour, event for event. *)

type params = {
  s_max : int;  (** max RCC message size, bytes *)
  r_max : float;  (** max RCC messages per second *)
  d_max : float;  (** max one-hop RCC message delay, seconds *)
  retransmit_timeout : float;  (** resend period for unacked messages *)
  max_retransmits : int;  (** give up after this many resends *)
  seen_window : int;
      (** receiver-side dedup window: remember at most this many recent
          sequence numbers *)
}

val default_params : params
(** s_max 8192 B (sized to cover the worst-case control burst of the
    paper's 8x8 evaluation networks, see the Section 5.2 audit),
    r_max 10 000/s, d_max 1 ms, retransmit after 4 ms, 8 attempts,
    4096-entry dedup window. *)

type impairment = dir:[ `Data | `Ack ] -> bytes:int -> now:float -> float list
(** Fate of one transmission: extra delays, one per surviving copy
    (empty list = lost, two entries = duplicated).  Called once per RCC
    message copy offered to the link ([`Data]) and once per
    acknowledgment ([`Ack]). *)

type t

val create :
  Sim.Engine.t ->
  params:params ->
  link:int ->
  deliver:(Control.t -> unit) ->
  t
(** RCC over the given link; [deliver] runs once per control message that
    reaches the far end (after dedup). *)

val send : t -> Control.t -> unit
(** Queue a control message.  Identical messages already waiting are not
    queued twice (the paper: duplicate reports are discarded).

    A [Heartbeat] skips that check (its beat number makes it unique) and
    must be the caller's last action in its engine event.  When the RCC
    is idle (nothing queued, no pump pending, the [r_max] pacing allows
    a send now) and no other event is due at the current time
    ({!Sim.Engine.due_now}), the heartbeat is packed and transmitted
    inline instead of through a pump event at the same time: the pump
    would have been the next event to run, so both paths give the same
    run, event for event.  Otherwise it waits for the pump like any
    other message. *)

val set_alive : t -> bool -> unit
(** A dead link loses RCC messages and their acknowledgments; pending
    retransmissions keep trying until [max_retransmits] so that messages
    survive short outages (repair scenarios).  On the dead->alive
    transition, receiver dedup state that can no longer match a
    retransmission is pruned. *)

val set_impairment : t -> impairment option -> unit
(** Attach (or detach) the delivery hook; [None] restores the exact
    unimpaired behaviour. *)

type sink = link:int -> op:Sim.Event.rcc_op -> seq:int -> bytes:int -> unit
(** Receives every RCC-message lifecycle step as the fields of a
    {!Sim.Event.Rcc}: [Send] on first transmission, [Retransmit] on
    resends, [Deliver] once per message accepted after dedup, [Ack] when
    an acknowledgment lands, [Drop] when a message is abandoned after
    [max_retransmits].  A persistent run of drops is the sender-side
    failure signal the heartbeat detector consumes. *)

val set_sink : t -> sink -> unit
(** Replace the step sink (default: one that ignores every step).  The
    transport passes the fields as plain arguments, so reporting a step
    allocates nothing. *)

val in_flight : t -> int
(** RCC messages sent but not yet acknowledged. *)

val stats_sent : t -> int
(** RCC messages transmitted, including retransmissions. *)

val stats_delivered : t -> int
(** Control messages delivered to the far end (after dedup). *)

val stats_dropped : t -> int
(** RCC messages abandoned after [max_retransmits]. *)

val seen_size : t -> int
(** Entries currently held in the receiver-side dedup table (bounded by
    [seen_window]). *)
