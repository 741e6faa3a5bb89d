(** Ablation experiments: priority-based activation (E8, Section 4.3) and
    inhomogeneous traffic (E9, last paragraph of Section 7.1 plus the
    hot-spot argument of Section 7.4). *)

(** E8: under contention (double-node failures on a mixed-degree network
    with scarce spare), does activating high-priority (small-ν)
    connections first protect them?  Compares arrival-order activation
    with priority-order activation per degree class. *)
val priority_activation :
  ?seed:int -> ?double_sample:int -> Setup.network -> Report.t

(** E9: hot-spot traffic — the proposed per-link spare sizing vs.
    brute-force uniform spare of the same total, measured by R_fast under
    single link and node failures.  35 % of the connections end at a
    central node; 3000 connections on the 8×8 networks, scaled by pair
    count elsewhere. *)
val inhomogeneous : ?seed:int -> Setup.network -> Report.t

(** E7 companion: per-scheme RCC traffic and informed-end coverage on a
    single link failure (Scheme 3 informs all nodes; Scheme 1/2 only one
    side — Section 4.2). *)
val scheme_coverage : ?seed:int -> Bcp.Netstate.t -> Report.t

(** Extension ablation ([HAN97b], cited in Section 7.2): spare-increment-
    minimising backup routing vs the paper's shortest-path search — spare
    bandwidth and single-failure coverage per multiplexing degree. *)
val backup_routing : ?seed:int -> Setup.network -> Report.t
