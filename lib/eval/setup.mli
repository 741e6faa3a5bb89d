(** Shared experiment scaffolding: the paper's two evaluation networks and
    the standard all-pairs establishment pass (Section 7 preamble). *)

type network =
  | Torus8 | Mesh8 | Torus4 | Mesh4 | Torus16 | Mesh16 | Torus64 | Mesh64

val topology_of : network -> Net.Topology.t
(** 8×8 torus with 200 Mbps links or 8×8 mesh with 300 Mbps links (the
    paper's networks), plus capacity-scaled 4×4 variants for the reduced
    benchmark suite and CI smokes, 16×16 variants for the large-network
    scaling tier, and 4096-node 64×64 variants for the flat-state
    benchmark ladder. *)

val network_label : network -> string

val dims : network -> int * int
(** Grid dimensions (rows, cols). *)

val names : (string * network) list
(** CLI spellings, e.g. [("torus64", Torus64)] — the single source of
    truth for [--network] parsing. *)

val of_name : string -> network option
(** Case-insensitive lookup in {!names}. *)

val pair_count : network -> int
(** Number of ordered node pairs (4032 on the 8×8 networks). *)

val center_nodes : network -> int list
(** The central 2×2 nodes used as hot-spot endpoints ([27; 28; 35; 36]
    on the 8×8 grids). *)

type establishment = {
  ns : Bcp.Netstate.t;
  established : int;
  rejected : int;
  load : float;  (** network load, % *)
  spare : float;  (** average spare-bandwidth reservation, % *)
}

val establish_all :
  ?backup_routing:Bcp.Establish.backup_routing ->
  ?progress_every:int ->
  ?on_progress:(established:int -> load:float -> spare:float -> unit) ->
  Bcp.Netstate.t ->
  Workload.Generator.request list ->
  establishment
(** Establish the requests in order (callers shuffle beforehand if
    desired), reporting progress every [progress_every] (default 250)
    connections.  Rejected requests are skipped and counted.

    Establishment is serial, as in the paper's sequential shortest-path
    set-up (Section 7): each request is routed against the state its
    predecessors left, so the result does not depend on [--jobs]. *)

val build :
  ?seed:int ->
  ?backups:int ->
  ?mux_degree:int ->
  ?backup_routing:Bcp.Establish.backup_routing ->
  ?obs:Telemetry.collector ->
  network ->
  establishment
(** The paper's standard pass: all 4032 ordered-pair connections, 1 Mbps
    each, hop slack 2, shuffled with [seed] (default 42), uniform backup
    count (default 1) and multiplexing degree (default 1), on a
    multiplexed netstate with λ = 1e-4.
    With [obs], {!Telemetry.setup_sink} is attached to the netstate's
    multiplexing engine before establishment, so the collector receives
    one {!Sim.Event.Mux} per backup-link registration (with its |Π| / |Ψ|
    sizes) under the pseudo-scenario tag [-1]. *)

val build_scaled :
  ?seed:int ->
  ?backups:int ->
  ?mux_degree:int ->
  network ->
  establishment
(** Fixed per-node offered load for the scaling tier: 8 random
    distinct-pair requests per network node (1 Mbps each, hop
    slack 2, uniform backup count and multiplexing degree, default
    mux degree 3), drawn from the seeded PRNG — so the workload grows
    linearly with the network while the per-node demand stays constant
    across 4×4 / 8×8 / 16×16. *)

val paper_degrees : int list
(** The multiplexing degrees of the paper's tables: 1, 3, 5 and 6. *)

val build_mixed : ?seed:int -> ?backups:int -> network -> establishment
(** Section 7.3's mixed-degree pass: {!paper_degrees} round-robin over
    the shuffled request list. *)
