(** Offline trace forensics: replay recorded telemetry through the
    {!Sim.Monitor} invariant checker.

    A trace file (JSONL or Chrome [trace_event], as written by
    [--trace-out]) interleaves independent simulation runs tagged by
    scenario ([-1] is the establishment-time multiplexing stream).  Each
    scenario is replayed into a fresh monitor — shadow state never leaks
    across runs — and the per-scenario violation reports and recovery
    timelines are combined into one auditable result. *)

val decode_cid : int -> int * int
(** The protocol layer's channel-id codec: [(conn, serial)]. *)

val context_of_netstate : Bcp.Netstate.t -> Sim.Monitor.context
(** Static link budgets (capacity / reserved / spare), channel paths and
    backup bandwidths of an established network, for the monitor's
    link-budget checks.  Under {!Bcp.Netstate.Brute_force} spare sizing
    the [max bw, Σ bw] multiplexing bracket does not apply, so the
    backup-bandwidth map is left empty (the bracket check self-skips). *)

val load_trace : string -> ((int * float * Sim.Event.t) list, string) result
(** Read a trace file: JSONL when the name ends in [.jsonl]; otherwise a
    [bcp-audit/v1] artifact with an embedded ["trace"] member (as the
    swarm minimizer writes), or Chrome [trace_event] JSON.  Every
    failure mode — unreadable file, parse error, unknown shape — comes
    back as [Error], never an exception. *)

(** {1 Replay} *)

type scenario_audit = {
  scenario : int;
  events : int;  (** events replayed into this scenario's monitor *)
  violations : Sim.Monitor.violation list;  (** detection order *)
  timelines : Sim.Monitor.timeline list;  (** by connection id *)
}

type result = {
  scenarios : scenario_audit list;  (** ascending scenario tag *)
  total_events : int;
  total_violations : int;
}

val replay :
  ?context:Sim.Monitor.context ->
  (int * float * Sim.Event.t) list ->
  result
(** Feed every event to its scenario's monitor (fresh per scenario,
    sharing [context]) and run the end-of-stream checks.  Violation
    [index]es are per-scenario stream positions.  Without a context the
    link-budget checks are skipped; everything keyed on channel ids
    still runs via {!decode_cid}. *)

(** {1 Filtering and rendering} *)

type filter = Conn of int | Link of int

val apply_filters : filter list -> result -> result
(** Keep violations matching any filter ([Conn] on the violation's
    connection, [Link] on its link) and timelines matching a [Conn]
    filter; the empty list keeps everything.  [Link]-only filter sets
    keep all timelines (timelines are per-connection).  Event counts are
    left untouched; [total_violations] is recomputed. *)

val to_json : source:string -> result -> Json.t
(** The [bcp-audit/v1] document: schema, source, totals, and one object
    per scenario with its violations and timelines. *)

val print : result -> unit
(** Human-readable report on stdout: violation lines per scenario
    (via {!Sim.Monitor.pp_violation}) and per-connection recovery
    timelines, one line per phase with absolute time and delta to the
    preceding phase. *)
