(** Dependable real-time connections: one primary channel plus zero or
    more cold-standby backup channels (Section 1). *)

(** Lifecycle of a backup channel as seen by the connection's end nodes. *)
type backup_state =
  | Standby  (** healthy backup, ready for activation *)
  | Activated  (** promoted to primary after a failure *)
  | Broken  (** disabled by a component or multiplexing failure *)
  | Closed  (** torn down by resource reconfiguration *)

type backup = {
  bid : int;  (** network-wide backup channel id *)
  serial : int;  (** 1-based serial used to agree on activation order *)
  path : Net.Path.t;
  nu : float;  (** multiplexing degree threshold ν *)
  mutable state : backup_state;
}

type t = {
  id : int;
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  mutable primary : Rtchan.Channel.t;
  mutable backups : backup list;  (** ascending serial *)
  mutable primary_alive : bool;
      (** the primary holds its bandwidth reservation; true on creation,
          cleared by {!Netstate.release_primary} and set again by
          {!Netstate.replace_primary} *)
  target_backups : int;
      (** the protection level the client asked for; reconfiguration
          re-provisions standby backups up to this count *)
}

val bandwidth : t -> float

val mux_degree : t -> lambda:float -> int
(** ν expressed back as the integer degree α (ν = α·λ) of the first
    backup; 0 when the connection has no backups. *)

val standby_backups : t -> backup list
val find_backup : t -> serial:int -> backup option

val standby_deficit : t -> int
(** How many standby backups are missing relative to [target_backups]. *)
