type backup_state = Standby | Activated | Broken | Closed

type backup = {
  bid : int;
  serial : int;
  path : Net.Path.t;
  nu : float;
  mutable state : backup_state;
}

type t = {
  id : int;
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  mutable primary : Rtchan.Channel.t;
  mutable backups : backup list;
  mutable primary_alive : bool;
  target_backups : int;
}

let bandwidth t = Rtchan.Traffic.bandwidth t.traffic

let mux_degree t ~lambda =
  match t.backups with
  | [] -> 0
  | b :: _ -> int_of_float (Float.round (b.nu /. lambda))

let standby_backups t = List.filter (fun b -> b.state = Standby) t.backups

let find_backup t ~serial = List.find_opt (fun b -> b.serial = serial) t.backups

let standby_deficit t = max 0 (t.target_backups - List.length (standby_backups t))
