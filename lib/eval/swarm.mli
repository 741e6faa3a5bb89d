(** Coverage-guided adversarial simulation swarm.

    The swarm drives the deterministic simulator with {!Failures.Plan}
    adversaries — timed multi-failure schedules composed with link
    impairments and {!Sim.Schedule} scheduler perturbation — and uses
    the {!Sim.Monitor} invariant checker both as the {e oracle} (any
    violation is a finding) and as the {e coverage signal}
    ({!Sim.Monitor.coverage}: shadow-automaton transitions, violation
    kinds and per-connection recovery-phase outcomes).  Plans whose runs
    light up new coverage are mutated further; plans that explore
    nothing already known are abandoned for fresh random roots.

    {b Reproducibility.}  Every plan is identified by its {e lineage}
    [[i0; j1; ...; jk]]: element 0 seeds the root generation
    ({!Sim.Prng.derive} from the swarm seed), each further element seeds
    one {!Failures.Plan.mutate} step.  {!plan_of_lineage} rebuilds any
    plan from the summary JSON alone.  Batches are composed serially and
    dispatched over {!Sim.Pool}, and results merge in execution order,
    so summaries are byte-identical across [--jobs] settings.

    Violating runs are shrunk with {!Minimize} and packaged as
    replayable [bcp-audit/v1] artifacts with the minimized event stream
    and the plan lineage embedded. *)

type strategy = Coverage | Random

val strategy_to_string : strategy -> string
val strategy_of_string : string -> strategy option

val plan_of_lineage :
  seed:int ->
  strategy:strategy ->
  max_faults:int ->
  horizon:float ->
  Net.Topology.t ->
  int list ->
  Failures.Plan.t
(** Rebuild the exact plan a summary line refers to, given the
    [max_faults] and [horizon] of its {!run}.  [Random] lineages are
    always singletons (random roots are never mutated).
    @raise Invalid_argument on an empty lineage. *)

type violation_report = {
  scenario : int;  (** execution index within the swarm *)
  lineage : int list;
  plan : Failures.Plan.t;
  kind : Sim.Monitor.kind;
  v_index : int;  (** violation index in the {e minimized} stream *)
  v_time : float;
  minimized_events : int;
  original_events : int;
  replays : int;  (** oracle replays the minimizer spent *)
  replay_context : bool;
      (** the violation only reproduces with the link-budget context
          (so a bare [bcp_sim audit] replay of the artifact shows the
          stream, not the violation) *)
  artifact : Json.t;  (** replayable [bcp-audit/v1] document *)
}

type report = {
  seed : int;
  strategy : strategy;
  network : string;  (** label only; the netstate is the caller's *)
  detector : string;
  budget : int;
  executed : int;  (** = [budget] unless a deadline cut the swarm short *)
  horizon : float;
  max_faults : int;
  coverage : string list;  (** sorted union over all executed runs *)
  curve : (int * int) list;  (** (scenarios executed, coverage) per batch *)
  affected : int;
  recovered : int;
  perturbed : int;  (** engine events actually delayed by perturbation *)
  violations : violation_report list;  (** execution order *)
}

val artifact_of :
  seed:int ->
  strategy:strategy ->
  lineage:int list ->
  plan:Failures.Plan.t ->
  replay_context:bool ->
  Minimize.outcome ->
  Json.t
(** Package a minimized violation as a self-contained [bcp-audit/v1]
    document: the audit result of replaying the minimized stream, plus a
    ["swarm"] section (seed, lineage, plan, minimization stats) and the
    embedded ["trace"] member {!Audit.load_trace} knows how to replay.
    The stream is replayed without a network context; [replay_context]
    is only recorded. *)

val run :
  ?obs:Telemetry.collector ->
  ?seed:int ->
  ?budget:int ->
  ?strategy:strategy ->
  ?detector:[ `Oracle | `Heartbeat ] ->
  ?max_faults:int ->
  ?horizon:float ->
  ?deadline:(unit -> bool) ->
  ?network:string ->
  Bcp.Netstate.t ->
  report
(** Run up to [budget] (default 64) scenarios in batches on the global
    {!Sim.Pool}.  [deadline] is polled between batches; once it returns
    [true] no further batch starts (wall-clock budgets trade the
    executed-count determinism away — the per-scenario results that did
    run are still exact).  Defaults: seed 11, [Coverage] strategy,
    oracle detector, max 3 faults per plan, horizon 0.25 s.

    With [obs], the collector receives the typed telemetry every
    scenario records for its invariant monitor anyway — its registry and
    its full event stream, tagged with the execution index.  The report
    is byte-identical either way: collection is read-only. *)

val report_to_json : report -> Json.t
(** The [bcp-swarm/v1] summary.  Deliberately independent of
    [--jobs] and of wall-clock time. *)

val print : report -> unit
(** Human-readable summary on stdout. *)
