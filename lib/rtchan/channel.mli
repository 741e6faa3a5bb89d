(** Real-time channels: uni-directional virtual circuits with reserved
    bandwidth along a fixed path. *)

type id = int

type t = {
  id : id;
  path : Net.Path.t;
  traffic : Traffic.t;
  qos : Qos.t;
}

val bandwidth : t -> float
val hops : t -> int
val src : t -> int
val dst : t -> int
