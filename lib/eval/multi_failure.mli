(** Extension experiment: R_fast under k simultaneous link failures.

    The paper evaluates one- and two-component failures; this sweep shows
    how coverage degrades as bursts grow, and how extra backups and small
    multiplexing degrees buy resilience — quantifying the "tolerating
    harsher failures" claim of Section 3.2. *)

val sweep : ?seed:int -> Setup.network -> Report.t
(** Rows = k (number of simultaneously failed links, 1..8); columns =
    protection configurations (backups, degree) of (1,1), (1,3), (1,6)
    and (2,6); cells = R_fast over 100 sampled scenarios per k. *)

(** {2 Event-driven variant} *)

val simulate :
  ?obs:Telemetry.collector -> ?seed:int -> Setup.network -> Report.t
(** {!sweep} on the event-driven protocol simulator, for one protection
    configuration (1 backup, degree 3) at a reduced size (k in 1/2/4,
    8 scenarios per k): the analytic engine behind {!sweep}
    has no event stream, so this is the variant to observe.  With [obs],
    establishment ({!Setup.build}) and every burst simulation record
    typed telemetry; bursts are tagged k-major in sweep order. *)
