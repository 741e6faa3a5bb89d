(** Fixed-size domain pool for the evaluation layer (OCaml 5 domains).

    Scenario sweeps are embarrassingly parallel: each seeded failure
    scenario is independent of every other.  The pool runs an
    order-preserving parallel [map] over such work lists; results are
    written into per-index slots, so merging them in index order is
    byte-identical to a sequential left fold regardless of how the
    domains interleave.  Callers that need randomness inside a task must
    derive a per-index seed (see {!Prng.derive}) instead of threading one
    generator across tasks.

    The evaluation modules route their per-scenario loops through
    {!map}, which runs on a process-wide pool sized by {!set_jobs}
    (default 1, i.e. plain sequential [List.map]).  CLIs translate their
    [--jobs N] flag into [set_jobs n]. *)

exception Task_failed of { worker : int; task : int; error : exn }
(** A task of a parallel map raised [error].  [task] is the index into
    the mapped list (for scenario sweeps, the scenario index) and
    [worker] the pool domain that ran it (0 = the calling domain, -1 =
    run inline by a nested map), so a failure names exactly which
    scenario on which domain died.  A printer is registered. *)

val set_jobs : int -> unit
(** Resize the global pool ([n >= 1]).  Shuts the previous pool down.
    @raise Invalid_argument if [n < 1]. *)

val current_jobs : unit -> int
(** Current global parallelism (1 unless [set_jobs] was called). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map on the global pool; a plain [List.map] when
    [current_jobs () = 1].  Otherwise tasks are dealt one index at a time
    to idle domains; [f] runs concurrently, so it must not mutate shared
    state.  If one or more tasks raise, every task still runs to
    completion and the exception of the {e lowest} index is re-raised in
    the caller as {!Task_failed} (deterministic regardless of
    scheduling; the original backtrace is preserved).  Calls from inside
    a running task run inline, in index order, instead of
    deadlocking. *)
