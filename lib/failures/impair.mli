(** Control-plane link impairments.

    The paper's failure model (Section 3.1) assumes neighbours detect
    failures and that RCC messages can be lost or duplicated in transit —
    the hop-by-hop ack/retransmission/dedup machinery of Section 5.1
    exists precisely to survive that.  This module is the fault injector:
    a per-link impairment profile decides, for every RCC message *and*
    every hop-by-hop acknowledgment, whether it is dropped, duplicated,
    or delayed, plus two pathological modes —

    - {e gray failure}: the link is reported up (no detection oracle
      fires, carriers see nothing) but silently discards everything;
    - {e flapping}: a periodic schedule of silent outages, modelling a
      link that oscillates without ever being declared down.

    All randomness comes from a seeded {!Sim.Prng}, so impaired runs are
    reproducible.  Profiles with all rates at zero consume no randomness
    and leave runs bit-for-bit identical to unimpaired ones. *)

type flap = {
  up : float;  (** seconds the link passes traffic *)
  down : float;  (** seconds the link silently drops everything *)
  phase : float;  (** offset into the cycle at t = 0 *)
}

type profile = {
  loss : float;  (** per-copy drop probability, [0, 1] *)
  dup : float;  (** probability a surviving copy is duplicated *)
  jitter : float;  (** extra delay, uniform in \[0, jitter\] seconds *)
  gray : bool;  (** silently drop everything while "up" *)
  flap : flap option;  (** periodic silent outages *)
}

val make :
  ?loss:float ->
  ?dup:float ->
  ?jitter:float ->
  ?gray:bool ->
  ?flap:flap ->
  unit ->
  profile
(** @raise Invalid_argument on rates outside [0, 1], negative jitter, or
    non-positive flap durations. *)

val flapping : up:float -> down:float -> ?phase:float -> unit -> flap

type t
(** A seeded impairment model: a default profile plus per-link
    overrides. *)

val create : seed:int -> ?default:profile -> unit -> t
(** A model drawing from the PRNG stream [seed].  [default] (no
    impairment unless given) applies to every link without a {!set_link}
    override. *)

val set_link : t -> link:int -> profile -> unit

val decide :
  t ->
  link:int ->
  dir:[ `Data | `Ack ] ->
  bytes:int ->
  now:float ->
  float list
(** The fate of one transmission offered to [link] at simulated time
    [now]: a list of extra delays, one per copy that survives (empty =
    lost, two entries = duplicated).  This is the function plugged into
    {!Rcc.Transport} as its delivery hook for both data and acks. *)

(** {2 Counters} *)

val drops : t -> int
