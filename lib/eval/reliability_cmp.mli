(** Experiment E6: the Figure 3 Markov models vs. the paper's
    combinatorial P_r approximation (Sections 3.1 and 3.3).

    The paper replaces the CTMC with a per-time-unit combinatorial model
    because µ ≫ λ makes the chain return to the healthy state quickly;
    this experiment quantifies how close the two are for representative
    channel lengths. *)

type row = {
  hops : int;
  components : int;
  r_markov_3a : float;  (** R(t) from the full model of Fig. 3(a) *)
  r_markov_3b : float;  (** R(t) from the simplified model of Fig. 3(b) *)
  pr_combinatorial : float;
  mttf_hours : float;  (** mean time to service loss, Fig. 3(b) model *)
}

val compute : hops:int list -> row list
(** One row per primary length in [hops]: component failure rate 1e-3/h
    (MTBF ≈ 1000 h, the paper's order of magnitude), repair rate 60/h
    (1-minute re-establishment), horizon 1 h; primary and backup disjoint
    and of equal length. *)

val report : row list -> Report.t
