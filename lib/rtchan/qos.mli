(** Timeliness QoS requirement of a real-time channel.

    The paper's evaluation expresses end-to-end delay feasibility as a hop
    budget: "the end-to-end delay requirement of each channel is assumed to
    be met if the channel path is not longer than the shortest-possible
    path by more than 2 hops".  We keep both forms: the hop-slack rule
    used by routing, and an optional absolute delay bound used by the
    event-driven data plane. *)

type t = private {
  hop_slack : int;  (** admissible extra hops over the unconstrained shortest *)
  delay_bound : float option;  (** end-to-end seconds, if the client gave one *)
}

val make : ?delay_bound:float -> hop_slack:int -> unit -> t
(** @raise Invalid_argument on negative slack or non-positive bound. *)

val default : t
(** hop_slack = 2 (the paper's setting), no absolute bound. *)

val max_hops : t -> shortest:int -> int
(** Hop budget for a channel whose unconstrained shortest route has
    [shortest] hops. *)
