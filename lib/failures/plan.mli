(** Combinatorial fault + impairment schedules for the adversarial swarm.

    A plan is a complete adversary for one simulation run: a {e timed}
    sequence of component failures (with optional repairs) composed with
    a link-impairment profile, a set of gray links, and a scheduler
    perturbation profile.  Unlike {!Scenario} — independent draws of
    components that fail together at one instant — a plan stages
    multiple failures at different times, so recovery of the first
    failure races with the onset of the second (the regime the paper's
    single-failure analysis does not cover).

    Plans are value types generated and mutated from a seeded
    {!Sim.Prng}, so any plan is reproducible from its seed lineage
    alone (see {!Eval.Swarm}). *)

type fault = {
  component : Net.Component.t;
  fail_at : float;
  repair_at : float option;  (** [Some t] with [t > fail_at], or never *)
}

type t = {
  label : string;
  faults : fault list;  (** sorted by [fail_at] *)
  impair : Impair.profile;  (** default profile for every link *)
  gray_links : int list;  (** sorted; overridden to silently drop all *)
  perturb : Sim.Schedule.profile;  (** scheduler perturbation *)
}

val generate :
  Sim.Prng.t -> Net.Topology.t -> ?max_faults:int -> ?horizon:float -> unit -> t
(** Draw a random plan: 1 to [max_faults] (default 3) distinct component
    failures (mostly links, some nodes) staggered over the first half of
    [horizon] (default 0.25 s), each repaired later with probability
    ~1/3; an impairment profile from a loss/dup/jitter ladder; possibly
    one gray link; and a perturbation profile drawn from bounded delay /
    rate ladders (disabled half the time). *)

val mutate : Sim.Prng.t -> Net.Topology.t -> t -> t
(** One random structural edit: add or drop a fault, shift a fault in
    time, toggle a repair, or re-draw the impairment or perturbation
    profile.  The result is always a valid plan (at least one fault,
    times within the generation window). *)

val of_scenario : at:float -> Scenario.t -> t
(** The scenario's components all failing at [at], in scenario order,
    never repaired, with no impairment and {!Sim.Schedule.disabled}. *)

val random_chaos : Sim.Prng.t -> Net.Topology.t -> t
(** The pure-random baseline the swarm is compared against: a single
    link failure at the standard injection time composed with a ladder
    impairment — exactly the per-scenario adversary of the existing
    chaos sweeps (no repairs, no multi-failure staging, no scheduler
    perturbation). *)

val to_json : t -> string
(** Compact self-describing JSON object (label, faults, impairment,
    gray links, perturbation) for summary files and artifacts. *)
