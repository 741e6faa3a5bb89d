(** Backup multiplexing (Section 3.2): per-link sharing of spare bandwidth
    among backups whose primaries are unlikely to fail simultaneously.

    For every link ℓ and every backup [B_i] on it, the engine maintains
    the non-multiplexable set Π(B_i, ℓ) — backups [B_j] with ν_j ≤ ν_i
    whose simultaneous-activation probability [S(B_i, B_j)] is at least
    ν_i.  The spare bandwidth to reserve at ℓ is

      max over B_i on ℓ of  bw(B_i) + Σ_{B_j ∈ Π(B_i, ℓ)} bw(B_j),

    and Ψ(B_i, ℓ) (the backups actually sharing with B_i, which drives
    the P_muxf bound) is everything on ℓ outside Π(B_i, ℓ) ∪ {B_i}.

    Updates are incremental: registering or removing one backup touches
    only pairwise terms with that backup (the O(n) scheme of Section 6).
    The engine keeps the hot path scalable on large networks:

    - primary-component overlap is counted with fixed-width bitsets
      (native-int words + popcount) instead of a sorted-array merge;
    - the [(1-λ)^c] power table is memoized per engine and symmetric
      [S(B_i, B_j)] values are cached by backup-id pair (invalidated when
      an id leaves its last link; recycled ids are guarded by physical
      equality of the component arrays);
    - each link's spare requirement is maintained incrementally in a
      lazy-deletion max-heap over per-backup contributions, so
      register/unregister cost O(log n) for the max update instead of a
      full-table rescan (the tests recompute it from first principles
      over {!on_link} after every update);
    - per-link tables are structure-of-arrays: each registered backup
      occupies a dense slot and the admission-scan fields (ν, bw, cached
      Π bandwidth, component bitset) live in parallel flat arrays, so the
      inner loops walk contiguous memory instead of hashtable buckets;
    - a per-link running Σbw feeds the O(1) {!upper_bound} ceiling, which
      lets admission fast-accept skip the exact scan entirely on
      uncontended links.

    All results are bit-identical to the pre-optimization full scans. *)

type backup_info = {
  backup : int;  (** backup channel id (unique network-wide) *)
  conn : int;  (** owning D-connection *)
  serial : int;  (** backup serial within the connection *)
  nu : float;  (** multiplexing threshold ν *)
  bw : float;  (** bandwidth to draw upon activation, Mbps *)
  primary_components : int array;  (** sorted encoded components of the primary *)
}

val encode_component : Net.Component.t -> int
val encode_components : Net.Component.Set.t -> int array
(** Sorted encoding for fast intersection counting. *)

val shared_count : int array -> int array -> int
(** Intersection size of two sorted, duplicate-free encoded-component
    arrays (reference two-pointer merge; the engine itself uses the
    bitset path below whenever the encodings fit). *)

val bitset_of_components : int array -> int array option
(** Pack a sorted, duplicate-free, non-negative encoded-component array
    into a fixed-width bitset (63 bits per native-int word).  [None] when
    an element is negative or beyond the bitset range (65536), in which
    case callers fall back to {!shared_count}. *)

val shared_count_bitset : int array -> int array -> int
(** Intersection size of two component bitsets: AND + popcount per word,
    O(components/63). *)

type t

val create : Net.Topology.t -> lambda:float -> t
(** [lambda]: per-component failure probability per time unit, the λ in
    S(B_i, B_j). *)

val lambda : t -> float

val set_event_sink : t -> (Sim.Event.t -> unit) option -> unit
(** Telemetry hook: when set, {!register} and {!unregister} emit a
    {!Sim.Event.Mux} carrying the backup's |Π| and |Ψ| on the link at
    the time of the update (for [Unregister], the sizes it had just
    before removal).  [None] (the default) costs nothing. *)

val register : t -> link:int -> backup_info -> unit
(** Add a backup to a link's table.
    @raise Invalid_argument if the backup id is already on the link. *)

val unregister : t -> link:int -> backup:int -> unit
(** Remove; unknown ids are ignored. *)

val spare_requirement : t -> link:int -> float
(** Current spare bandwidth needed at the link (0 when no backups). *)

val required_with : t -> link:int -> backup_info -> float
(** What the spare requirement would become if the backup were added —
    used by admission control during backup routing; does not modify the
    table.  For repeated probes of one candidate across many links (the
    establishment inner loop), build a {!probe} instead: it reuses the
    candidate's bitset and pairwise S-values across calls. *)

val upper_bound : t -> link:int -> backup_info -> float
(** O(1) conservative ceiling on {!required_with}: when the backup is not
    yet on the link, [bw + max (Σ bw registered) requirement], which is
    never less than the exact scan's answer; for a registered backup, the
    current requirement (matching {!required_with}).  Admission can
    therefore fast-accept on the ceiling and fall back to the exact scan
    only when the ceiling does not fit — the accept/reject verdict is
    unchanged. *)

val on_link : t -> link:int -> backup_info list
val mem : t -> link:int -> backup:int -> bool
val count_on : t -> link:int -> int

val pi_size : t -> link:int -> backup:int -> int
(** |Π(B_i, ℓ)|.
    @raise Invalid_argument naming the link and backup id when the backup
    is not registered on the link. *)

val psi_size : t -> link:int -> backup:int -> int
(** |Ψ(B_i, ℓ)| = (backups on ℓ) − |Π(B_i, ℓ)| − 1.
    @raise Invalid_argument naming the link and backup id when the backup
    is not registered on the link. *)

val psi_size_with : t -> link:int -> backup_info -> int
(** |Ψ| the given backup would have if registered on the link (the
    forward-pass computation of the negotiated establishment scheme). *)

val conflict_set : t -> link:int -> backup:int -> int list
(** Backup ids in Π(B_i, ℓ).
    @raise Invalid_argument naming the link and backup id when the backup
    is not registered on the link. *)

val max_requirement_victims : t -> link:int -> int list
(** Backup ids realising the current spare requirement (the ones whose
    Π-set drives the max) — candidates for closure during resource
    reconfiguration when the pool must shrink. *)

(** {2 Candidate admission probes}

    A probe fixes one candidate backup and answers admission questions for
    it on any link, reusing the candidate's component bitset and caching
    pairwise S-values and per-link answers.  Memoized answers are
    invalidated automatically when any registration changes, so a probe
    may be kept across table mutations; it simply recomputes on first use
    afterwards. *)

type probe

val probe : t -> backup_info -> probe

val probe_info : probe -> backup_info

val probe_required : probe -> link:int -> float
(** Same result as {!required_with} for the probe's candidate, memoized
    per link. *)

val probe_upper_bound : probe -> link:int -> float
(** {!upper_bound} for the probe's candidate (O(1), not memoized). *)

val probe_psi_size : probe -> link:int -> int
(** Same result as {!psi_size_with} for the probe's candidate, memoized
    per link. *)
