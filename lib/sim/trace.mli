(** In-memory store of a run's typed {!Event.t} stream.

    The protocol simulator records one event per interesting action
    (fault, channel-state transition, RCC step, detector signal, timer);
    tests assert on the recorded stream, examples print it, and the
    telemetry exporters and the auditor read it.  Recording is off by
    default and {!record_event} is a no-op until {!set_events} enables
    it, so untraced runs pay a single branch and allocate nothing.
    Events are kept in fixed-size chunks that are never copied; RCC
    steps, the bulk of a heartbeat run, are kept as plain ints and
    rebuilt into {!Event.Rcc} records only when {!events} reads them. *)

type t

val create : unit -> t
(** An empty store with recording disabled. *)

val set_events : t -> bool -> unit
(** Enable / disable recording (default: disabled). *)

val record_event : t -> time:float -> Event.t -> unit
(** Append an event; no-op (and allocation-free) while recording is
    disabled.  The store is unbounded and never drops, so exporters see
    the full run. *)

val record_rcc :
  t ->
  time:float ->
  link:int ->
  op:Event.rcc_op ->
  seq:int ->
  bytes:int ->
  unit
(** [record_event t ~time (Rcc {link; op; seq; bytes})] without building
    the record.  A [link] and [bytes] in [\[0, 2{^16})] and a [seq] in
    [\[0, 2{^27})] are packed into one int, and the call allocates
    nothing but, once per 1024 events, a new chunk.  Other values are
    stored boxed; {!events} returns the same event either way. *)

val events : t -> (float * Event.t) list
(** Chronological (recording order). *)

val event_count : t -> int
