type t = { hop_slack : int; delay_bound : float option }

let make ?delay_bound ~hop_slack () =
  if hop_slack < 0 then invalid_arg "Qos.make: negative hop slack";
  (match delay_bound with
  | Some d when d <= 0.0 -> invalid_arg "Qos.make: non-positive delay bound"
  | _ -> ());
  { hop_slack; delay_bound }

let default = { hop_slack = 2; delay_bound = None }

let max_hops t ~shortest =
  if shortest < 0 then invalid_arg "Qos.max_hops: negative shortest";
  shortest + t.hop_slack
