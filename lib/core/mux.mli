(** Backup multiplexing (Section 3.2): per-link sharing of spare bandwidth
    among backups whose primaries are unlikely to fail simultaneously.

    For every link ℓ and every backup [B_i] on it, the non-multiplexable
    set Π(B_i, ℓ) holds the backups [B_j] with ν_j ≤ ν_i that belong to
    the same connection or whose simultaneous-activation probability
    [S(B_i, B_j)] is at least ν_i.  The engine keeps only |Π| and
    Σbw(Π) per backup and link; membership is this rule, applied again when a
    backup leaves.  The spare bandwidth to reserve at ℓ is

      max over B_i on ℓ of  bw(B_i) + Σ_{B_j ∈ Π(B_i, ℓ)} bw(B_j),

    and Ψ(B_i, ℓ) (the backups actually sharing with B_i, which drives
    the P_muxf bound) is everything on ℓ outside Π(B_i, ℓ) ∪ {B_i}.

    Updates are incremental: registering or removing one backup touches
    only pairwise terms with that backup (the O(n) scheme of Section 6).
    The hot path runs on flat data only:

    - a backup store keeps one record per registered backup, however
      many links it is on: its id, connection, serial, ν, bw, primary
      component array and component count, the primary's index entry
      and the number of links holding it, in parallel flat arrays
      indexed by a dense handle.  One engine-wide table maps a backup id
      to its handle.  A record is freed, and its handle reused, when the
      backup leaves its last link;
    - each link's table keeps, per slot, only the backup's handle, its
      |Π| and its Σbw(Π) on that link, three flat arrays with LIFO slot
      reuse, so a scan walks the slots in order and reads each peer's ν,
      bw, connection and entry from the store.  No per-link index maps
      ids to slots: a backup is found on a link by scanning the link's
      handles, a walk of a few dozen ints that the register and
      unregister walks already outweigh;
    - primary-component overlap comes from an inverted index over the
      registered primaries: each distinct component array is one entry,
      refcounted by the backups holding it, and each encoded component
      lists the entries containing it.  Every encoding lies in
      [[0, 2 · max(nodes, links))], the range {!encode_path} yields on
      the engine's topology; {!register} and {!probe} reject any other.
      A candidate (a probe's backup, or the backup being registered)
      walks the lists of its own components once, adding into a
      per-domain count array that a rising epoch base clears in O(1);
      every S value then reads its shared count in O(1).  The counts are
      reused while the index has no new entry and the candidate keeps
      its components, so a probe counts once, and the registration that
      follows it reuses its counts on every link of the path.  A removal
      counts the victim's primary into a second scratch, and that count
      serves the backup's removal from every link of its path;
    - S values are not cached: in a torus16 churn of 8 000 events
      (CI's mux work counters) the counts walk 2.41 M index entries for
      2.25 M S values, about one entry per S value where a scan used to
      test each of the peer's ≈17 components.  The [(1-λ)^c] power table
      is memoized per engine;
    - each link's spare requirement is refreshed during the slot walk
      that {!register} and {!unregister} already make to update each
      slot's |Π| and Σbw(Π) (tables hold a few dozen entries, so no heap
      beats this walk);
    - a per-link running Σbw feeds an O(1) ceiling
      ({!probe_upper_bound}) that lets admission fast-accept skip the
      exact scan on uncontended links.

    All results are bit-identical to the pre-optimization full scans. *)

type backup_info = {
  backup : int;  (** backup channel id (unique network-wide) *)
  conn : int;  (** owning D-connection *)
  serial : int;  (** backup serial within the connection *)
  nu : float;  (** multiplexing threshold ν *)
  bw : float;  (** bandwidth to draw upon activation, Mbps *)
  primary_components : int array;
      (** sorted, duplicate-free encoded components of the primary; the
          engine keeps the array itself, so it must not be mutated once
          passed in *)
}

val encode_path : Net.Topology.t -> Net.Path.t -> int array
(** The path's components ({!Net.Path.components}: every node, endpoints
    included, and every link), encoded as a sorted, duplicate-free array
    for fast intersection counting. *)

val shared_count : int array -> int array -> int
(** Intersection size of two sorted, duplicate-free encoded-component
    arrays (reference two-pointer merge; the engine uses it only to count
    a new index entry against the current candidate). *)

type t

val create : Net.Topology.t -> lambda:float -> t
(** [lambda]: per-component failure probability per time unit, the λ in
    S(B_i, B_j). *)

val set_event_sink : t -> (Sim.Event.t -> unit) option -> unit
(** Telemetry hook: when set, {!register} and {!unregister} emit a
    {!Sim.Event.Mux} carrying the backup's |Π| and |Ψ| on the link at
    the time of the update (for [Unregister], the sizes it had just
    before removal).  [None] (the default) costs nothing. *)

val register : t -> link:int -> backup_info -> unit
(** Add a backup to a link's table.  One record per backup: while a
    backup id is on some link, every link it is registered on takes the
    record it was first registered with (equal fields, and an equal
    component array).  Once the backup has left every link, its id may
    come back with another record.
    @raise Invalid_argument if the backup id is already on the link, if
    it is on another link with another record, or naming the first
    encoding of its primary outside the index; the engine is left as it
    was. *)

val unregister : t -> link:int -> backup:int -> unit
(** Remove; ids not on the link are ignored.  Removal from the last link
    a backup is on frees its record. *)

val spare_requirement : t -> link:int -> float
(** Current spare bandwidth needed at the link (0 when no backups). *)

val on_link : t -> link:int -> backup_info list
val mem : t -> link:int -> backup:int -> bool
val count_on : t -> link:int -> int

val psi_size : t -> link:int -> backup:int -> int
(** |Ψ(B_i, ℓ)| = (backups on ℓ) − |Π(B_i, ℓ)| − 1.
    @raise Invalid_argument naming the link and backup id when the backup
    is not registered on the link. *)

val max_requirement_victims : t -> link:int -> int list
(** Backup ids realising the current spare requirement (the ones whose
    Π-set drives the max) — candidates for closure during resource
    reconfiguration when the pool must shrink. *)

(** {2 Candidate admission probes}

    A probe fixes one candidate backup that is on no link (a fresh
    backup id) and answers admission questions for it on any link,
    reading the tables as they are at each call, so it may be kept
    across registrations and removals.  Its overlap counts are taken
    once and retaken only after another candidate counted in this
    domain or a new primary entered the index. *)

type probe

val probe : t -> backup_info -> probe
(** @raise Invalid_argument naming the first encoding of the candidate's
    primary outside the index. *)

val probe_required : probe -> link:int -> float
(** What the link's spare requirement would become with the candidate
    added; does not modify the table. *)

val probe_upper_bound : probe -> link:int -> float
(** O(1) conservative ceiling on {!probe_required}:
    [bw + max (Σ bw registered) requirement], which is never less than
    the exact scan's answer.  Admission can therefore fast-accept on the
    ceiling and fall back to the exact scan only when the ceiling does
    not fit — the verdict is unchanged. *)
