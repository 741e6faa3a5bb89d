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

let pp_backup_state ppf s =
  Format.pp_print_string ppf
    (match s with
    | Standby -> "standby"
    | Activated -> "activated"
    | Broken -> "broken"
    | Closed -> "closed")

let pp ppf t =
  Format.fprintf ppf "@[conn#%d %d->%d bw=%.2f primary=%a backups=[%a]@]" t.id
    t.src t.dst (bandwidth t) Net.Path.pp t.primary.Rtchan.Channel.path
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf b ->
         Format.fprintf ppf "#%d(%a,%a)" b.serial Net.Path.pp b.path
           pp_backup_state b.state))
    t.backups
