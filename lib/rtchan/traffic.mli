(** Client traffic specification.

    A real-time channel contract begins with the client describing its
    input traffic (Section 2: "he has to specify his traffic-parameters
    (e.g., maximum message rate)").  The linear bounded-arrival model used
    here (peak message rate × maximum message size, with a burst bound)
    covers the paper's needs: the admission test reduces it to a peak
    bandwidth per link. *)

type t = private {
  max_msg_size : int;  (** bytes *)
  max_msg_rate : float;  (** messages per second *)
  burst : int;  (** maximum back-to-back messages (token-bucket depth) *)
}

val make : ?burst:int -> max_msg_size:int -> max_msg_rate:float -> unit -> t
(** [burst] defaults to 1.
    @raise Invalid_argument on non-positive parameters. *)

val of_bandwidth : float -> t
(** Convenience: a 1 kB-message stream whose peak bandwidth is the given
    Mbps figure — the shape used by the paper's evaluation ("each channel
    requires 1 Mbps of bandwidth on each link of its path"). *)

val bandwidth : t -> float
(** Peak bandwidth in Mbps = msg size × msg rate. *)

val message_transmission_time : t -> link_capacity:float -> float
(** Seconds to clock one maximum-size message onto a link of the given
    Mbps capacity. *)
