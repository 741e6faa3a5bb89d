(** Bounded in-memory trace of simulation events.

    The protocol simulator records one entry per interesting action
    (message sent, state transition, timer fired...).  Tests assert on the
    recorded sequences; examples print them.  Most runs never read their
    string trace, so an entry's detail is kept as a printer and formatted
    only when {!entries} or {!find_all} reads it.

    Alongside the human-readable string ring, a trace can carry {e typed}
    {!Event.t} records for the telemetry exporters.  Typed recording is
    off by default and {!record_event} is a no-op until {!set_events}
    enables it, so untraced runs pay a single branch and allocate
    nothing.  Typed events are kept in fixed-size chunks that are never
    copied; RCC steps, the bulk of a heartbeat run, are kept as plain
    ints and rebuilt into {!Event.Rcc} records only when {!events} reads
    them. *)

type entry = { time : float; tag : string; detail : string }

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer; default capacity 65536.  Storage starts empty and grows
    by doubling up to the capacity as entries arrive.  When full, oldest
    entries drop.
    @raise Invalid_argument if [capacity] is zero or negative. *)

val record_pp :
  t -> time:float -> tag:string -> (Format.formatter -> unit) -> unit
(** Record an entry whose detail is whatever the printer writes.  The
    printer runs on every read of the entry, not now, so it must capture
    values rather than state that changes later. *)

val record : t -> time:float -> tag:string -> string -> unit

val entries : t -> entry list
(** Oldest first; each detail is formatted here. *)

val count : t -> int
(** Number of entries recorded since creation (including dropped ones). *)

val find_all : t -> tag:string -> entry list
(** O(matches) via a per-tag secondary index maintained on {!record};
    iteration order is stable (oldest first, same relative order as
    {!entries}).  Entries evicted from the ring leave the index too. *)

val clear : t -> unit
(** Drops the string ring {e and} the typed-event buffer (the
    {!set_events} flag itself is untouched). *)

val pp_entry : Format.formatter -> entry -> unit

(** {1 Typed events} *)

val set_events : t -> bool -> unit
(** Enable / disable typed-event recording (default: disabled). *)

val record_event : t -> time:float -> Event.t -> unit
(** Append a typed event; no-op (and allocation-free) while typed
    recording is disabled.  The typed buffer is unbounded — unlike the
    string ring it never drops, so exporters see the full run. *)

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
