(** Discrete-event simulation engine.

    A deterministic event loop: events are closures scheduled at absolute
    simulated times and executed in time order; ties break by insertion
    order (FIFO), which keeps runs reproducible.  Scheduled events can be
    cancelled, which is how soft-state timers (the paper's rejoin timers)
    are withdrawn when a rejoin message arrives in time.

    Pending events wait in a binary heap or in one of a few fixed-delay
    lanes.  A lane is a FIFO of {!schedule_after} events that share one
    delay and that the perturbation hook left on time.  The clock never
    decreases and adding a fixed delay is monotone in IEEE arithmetic, so
    a lane is already in (time, insertion) order; dispatch takes the
    earliest of the heap top and the lane heads, which is the order a
    single heap would give, event for event.  A lane event is scheduled,
    cancelled and dispatched in O(1): a cancelled one is skipped when it
    reaches its lane's head.  The heap keeps {!schedule} events,
    perturbed events, and delays that find neither their own lane nor an
    empty lane to take over. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

type klass = Message | Timer | Internal
(** What a scheduled event models.  [Message] is a network delivery,
    [Timer] a protocol timer firing; both are legitimate targets for
    adversarial perturbation (the network may be slow, the process may
    be descheduled).  [Internal] events — fault injections, workload
    arrivals, bookkeeping — fire exactly when scheduled and are never
    perturbed. *)

val create : unit -> t
(** Fresh engine at time 0. *)

val now : t -> float
(** Current simulated time. *)

val set_perturb : t -> (klass -> delay:float -> float) option -> unit
(** Install (or clear) a perturbation hook.  For every [Message] or
    [Timer] event scheduled afterwards, the hook receives the event's
    class and nominal delay from now and returns an {e extra} delay to
    add; non-positive returns leave the event untouched.  [Internal]
    events never reach the hook.  Since extra delay is non-negative the
    no-past invariant of {!schedule} is preserved. *)

val schedule : ?klass:klass -> t -> at:float -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when the clock reaches [at]
    ([klass] defaults to [Internal]; see {!set_perturb}).  [at] may be
    [infinity].
    @raise Invalid_argument if [at] is in the past or NaN. *)

val schedule_after : ?klass:klass -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] = [schedule t ~at:(now t +. delay) f].
    @raise Invalid_argument if [delay] is negative or NaN. *)

val cancel : t -> handle -> unit
(** Cancel a pending event: it leaves the queue at once, so it is never
    dispatched and no longer counts in {!pending}; the other events keep
    their (time, insertion) order.  Cancelling an already-fired or
    already-cancelled event is a no-op, even after its slot has been
    reused by a later event. *)

val pending : t -> int
(** Number of events still scheduled. *)

val due_now : t -> bool
(** [true] when some scheduled event is due at the current time, i.e. it
    would run before anything scheduled from now on at [now t].  Lets a
    caller do inline what an event at [now] would do, once nothing else
    can come first. *)

val step : t -> bool
(** Execute the next event.  Returns [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [?until], stop (without executing) at the
    first event strictly later than [until] and advance the clock to
    [until]. *)
