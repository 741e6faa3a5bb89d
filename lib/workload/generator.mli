(** Connection-request workloads for the evaluation (Section 7).

    The paper establishes one D-connection per ordered node pair
    (64·63 = 4032 on the 8×8 networks), all with identical 1 Mbps
    traffic; Section 7.1 also reports runs with mixed bandwidths and
    hot-spot endpoint distributions, and Section 7.3 mixes multiplexing
    degrees across connection classes. *)

type request = {
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  mux_degree : int;
  backups : int;
}

val all_pairs :
  ?backups:int -> ?mux_degree:int -> Net.Topology.t -> request list
(** One 1 Mbps request per ordered node pair, in (src, dst) lexicographic
    order.  Every generated request has QoS {!Rtchan.Qos.default} (hop
    slack 2).  Defaults: 1 backup, mux degree 1. *)

val shuffled : Sim.Prng.t -> request list -> request list

val with_mux_mix : degrees:int list -> request list -> request list
(** Round-robin the given degrees over the request list (Section 7.3's
    four-way 1/3/5/6 split is [with_mux_mix ~degrees:[1;3;5;6]]). *)

val with_bandwidth_mix : Sim.Prng.t -> choices:float list -> request list -> request list
(** Each request draws its bandwidth uniformly from [choices]. *)

val distinct_pair : Sim.Prng.t -> int -> int * int
(** Uniform ordered pair of distinct node ids in \[0, n). *)

val random_pairs :
  Sim.Prng.t ->
  ?bandwidth:float ->
  ?backups:int ->
  ?mux_degree:int ->
  Net.Topology.t ->
  count:int ->
  request list
(** Uniformly random distinct (src, dst) ordered pairs. *)

val hotspot :
  Sim.Prng.t ->
  ?backups:int ->
  ?mux_degree:int ->
  Net.Topology.t ->
  hotspots:int list ->
  fraction:float ->
  count:int ->
  request list
(** [fraction] of the requests terminate at a uniformly drawn hotspot
    node; the rest are uniform pairs, all at 1 Mbps.  Models the
    inhomogeneous traffic of Section 7.1's last paragraph. *)
