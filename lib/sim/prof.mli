(** Self-observability for the simulator engine: hierarchical wall-clock
    spans, GC deltas and labelled counters, zero-cost when disabled.

    The protocol layer has been observable since the typed event stream
    and metrics registry landed; this module makes the {e engine that
    runs it} observable — where does establishment wall time go, how
    many admission checks do its routing searches make, how busy are
    the pool domains.  Instrumentation sites
    call {!span} / {!count}; both reduce to a single atomic load and a
    branch while profiling is disabled, so instrumented hot paths stay
    on their baseline cost in ordinary runs.

    {2 Determinism rule}

    Profiling reads the monotonic clock and [Gc.quick_stat] and writes
    only profiler-private domain-local state.  It never touches a PRNG
    stream, never schedules or reorders an event, and never changes a
    control-flow decision — so enabling it cannot perturb simulation
    results, and disabling it leaves every output byte-identical to the
    committed baselines (CI-gated).

    {2 Domain discipline}

    Each domain accumulates into its own epoch-stamped [Domain.DLS]
    state (the same discipline as the establishment cost scratch), so
    pool workers profile without locks; {!report} merges all domains.
    Call {!enable} / {!reset} / {!report} from the main domain between
    parallel regions, not concurrently with a running pool map. *)

type span_stat = {
  name : string;
  count : int;  (** completed spans with this name, all domains *)
  total_ns : float;  (** wall time inside the span, children included *)
  self_ns : float;  (** wall time minus time inside child spans *)
  minor_words : float;  (** minor-heap words allocated inside the span *)
  major_words : float;
  minor_collections : int;  (** minor GCs that completed inside the span *)
  major_collections : int;
}

type raw_span = {
  span_name : string;
  domain : int;  (** domain id that ran the span *)
  depth : int;  (** nesting depth at entry (0 = top level) *)
  start_ns : float;  (** relative to the first {!enable} of this epoch *)
  stop_ns : float;
}

type report = {
  wall_ns : float;  (** wall time since the first {!enable} of this epoch *)
  spans : span_stat list;  (** merged across domains, sorted by name *)
  counters : (string * int) list;  (** merged across domains, sorted *)
  raw_spans : raw_span list;  (** chronological; bounded per domain *)
  dropped_spans : int;  (** raw spans beyond the per-domain bound *)
}

val enable : unit -> unit
(** Start profiling.  The first [enable] after a {!reset} (or program
    start) anchors the epoch origin for {!raw_span} timestamps. *)

val disable : unit -> unit
(** Stop profiling.  Accumulated data survives and {!report} still
    works; do not disable while spans are open on other domains. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Discard all accumulated data (all domains, via epoch stamping). *)

val now_ns : unit -> float
(** Monotonic clock, nanoseconds from an arbitrary origin. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  Balanced on exceptions.
    When disabled this is one atomic load, a branch, and a tail call. *)

val enter : string -> unit
(** Open a span by hand.  Must be matched by {!leave} with the same
    name on the same domain; prefer {!span} where scoping allows. *)

val leave : string -> unit
(** Close the innermost open span.
    @raise Invalid_argument
      if no span is open or the name does not match the innermost
      frame — unbalanced instrumentation is a bug, not data. *)

val count : ?by:int -> string -> unit
(** Add [by] (default 1) to a labelled counter on this domain. *)

type counter
(** A handle on a named counter, for call sites too hot for {!count}'s
    name lookup (one per engine event, RCC message or detector check).
    Resolve it once, at module initialisation, then {!incr} it. *)

val counter : string -> counter
(** The handle for [name]; the same name always gives the same handle. *)

val incr : ?by:int -> counter -> unit
(** {!count} through a handle: one atomic load and a branch when
    disabled, an array increment when enabled.  A handle's counter shows
    in {!report} once it is nonzero, merged with {!count}s of the same
    name. *)

val depth : unit -> int
(** Open-span nesting depth on the calling domain (0 when disabled). *)

val report : unit -> report
(** Merge every domain's data for the current epoch.  Deterministic
    shape: spans and counters are sorted by name, raw spans by start
    time.  Values (times, per-domain attribution) are wall-clock facts
    and naturally vary run to run. *)

val print_top : Format.formatter -> unit
(** Hot-span table: the 12 spans with the most self time, plus nonzero
    counters. *)
