(** Exporters for the typed telemetry plane ({!Sim.Event},
    {!Sim.Metrics}): JSON codecs, JSONL event logs, Chrome [trace_event]
    files and plain-text metric tables.

    All output is deterministic — events keep recording order, metric
    snapshots are already sorted — so telemetry from an [--jobs N] sweep
    is byte-identical to a sequential one. *)

val event_to_json : Sim.Event.t -> Json.t
(** One object per event, tagged with a ["type"] member (the
    {!Sim.Event.type_tag}). *)

val event_of_json : Json.t -> (Sim.Event.t, string) result
(** Inverse of {!event_to_json}. *)

val events_to_jsonl : out_channel -> (int * float * Sim.Event.t) list -> unit
(** Write one compact JSON object per line for each (scenario, time,
    event) triple, with ["scenario"] and ["time"] members prepended.
    Streams line by line: the log is never rendered as one string. *)

val events_to_chrome :
  ?prof:Sim.Prof.report -> (int * float * Sim.Event.t) list -> Json.t
(** Chrome [trace_event] JSON (load in [chrome://tracing] or Perfetto):
    instant events, [ts] in microseconds, [pid] = scenario index,
    [tid] = acting node (or link / connection) id.  With [?prof], engine
    spans are merged onto the same timeline as complete ([ph = "X"])
    events under process id 1&nbsp;000&nbsp;000 with [tid] = domain id,
    so one load shows protocol phases over engine spans. *)

val events_of_jsonl : string -> ((int * float * Sim.Event.t) list, string) result
(** Inverse of {!events_to_jsonl} (blank lines skipped; errors name the
    offending line). *)

val events_of_chrome : Json.t -> ((int * float * Sim.Event.t) list, string) result
(** Inverse of {!events_to_chrome}: rebuilds each event from its [args]
    member, [pid] and [ts]. *)

val tagged_to_json : int * float * Sim.Event.t -> Json.t
(** One (scenario, time, event) triple as the JSONL line object —
    {!event_to_json} with ["scenario"] and ["time"] prepended.  Used to
    embed event streams inside other JSON documents (swarm artifacts). *)

val tagged_of_json : Json.t -> (int * float * Sim.Event.t, string) result
(** Inverse of {!tagged_to_json}. *)

val metrics_to_json : Sim.Metrics.snapshot -> Json.t
(** Array of [{"name", "labels", "kind", "value"}] objects; timer values
    carry the full histogram. *)

val metrics_of_json : Json.t -> (Sim.Metrics.snapshot, string) result
(** Inverse of {!metrics_to_json}. *)

val metrics_report : Sim.Metrics.snapshot -> Report.t
(** Text table: one row per metric. *)

val prof_to_json : Sim.Prof.report -> Json.t
(** Engine-profile report as a [bcp-prof/v1] object: aggregated spans
    (count, total/self wall ns, GC deltas), merged counters, and the
    raw-span/dropped-span tallies.  Raw spans themselves are exported
    through {!events_to_chrome}'s [?prof] argument, not duplicated
    here. *)

(** {2 Collector}

    The one observer every event-driven experiment takes, as its [?obs]
    argument: a merged metrics registry and the tagged event stream.
    Experiments simulate their scenarios on {!Sim.Pool}, each with a
    private registry and trace ({!Episode.run} returns them as a {!run}),
    and {!add} the finished runs in scenario
    order, so what a collector holds is byte-identical under any
    {!Sim.Pool.set_jobs} setting.  Observation is passive: an
    experiment's result is the same with or without [?obs]. *)

type collector

type run = Sim.Metrics.t * (float * Sim.Event.t) list
(** One finished scenario: its private registry and its [(time, event)]
    list. *)

val create : events:bool -> collector
(** [events]: keep the tagged event stream ({!events}).  Without it the
    collector holds only the merged registry, and the experiments that
    feed it build no event lists, so a long observed run costs memory in
    proportion to its metrics, not to its events. *)

val keeps_events : collector -> bool

val add : collector option -> tag:int -> run option -> unit
(** Merge one run: fold its registry into the collector's
    ({!Sim.Metrics.merge_into}) and, when it keeps events, append its
    events under the scenario tag [tag].  A no-op unless both options are
    [Some]. *)

val setup_sink : collector -> Sim.Event.t -> unit
(** Sink for establishment-time multiplexing updates ({!Setup.build}):
    appends each event under the pseudo-scenario tag [-1] at time
    [0.0] when the collector keeps events. *)

val metrics : collector -> Sim.Metrics.snapshot
(** Snapshot of the merged registry. *)

val events : collector -> (int * float * Sim.Event.t) list
(** [(tag, time, event)] triples in merge order; empty unless the
    collector keeps events. *)
