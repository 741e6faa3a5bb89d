(** Metrics registry: labelled counters, gauges and histogram-backed
    timers for the protocol and evaluation layers.

    A registry maps [(name, labels)] to a metric; registering the same
    pair twice returns the existing metric (so instrumentation sites can
    look handles up idly).  Observation through a handle is O(1) (a
    mutable field update, plus an O(samples) append for timers).

    Registries are single-domain objects.  Parallel sweeps give every
    scenario simulation its own registry and {!merge_into} the results in
    scenario order — merging is deterministic, so an [--jobs N] sweep
    produces byte-identical metrics to a sequential one. *)

type t

type counter
type gauge
type timer

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find-or-create.  @raise Invalid_argument if [(name, labels)] is
    already registered with a different kind.  Label order is
    irrelevant.  The lookup is linear and sorts label lists, so resolve
    a handle once (on its first use) and keep it; do not look it up per
    observation. *)

val gauge : t -> string -> gauge

val timer : t -> string -> timer
(** Timer backed by a {!Stats.Histogram} over 0–100 ms in 64 bins
    (observations outside clamp into the edge bins) plus a
    {!Stats.Sample} for exact percentiles. *)

val incr : ?by:int -> counter -> unit
val count : counter -> int

val set : gauge -> float -> unit
val value : gauge -> float

val observe : timer -> float -> unit
val observations : timer -> int

(** {1 Snapshots} *)

type timer_stats = {
  observed : int;
  mean : float;
  p50 : float;
  p95 : float;
  vmax : float;  (** largest observation (0 when empty) *)
  lo : float;  (** histogram lower bound *)
  hi : float;  (** histogram upper bound *)
  buckets : int array;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Timer_v of timer_stats

type snapshot = (string * (string * string) list * value) list

val snapshot : t -> snapshot
(** Deterministic: sorted by name, then labels; labels themselves
    sorted. *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges take the source value
    (last writer wins), timers re-observe every source sample.  Metrics
    missing from [into] are created. *)
