let s_max_requirement ~control_message_size ~max_channels_on_link_pair =
  if control_message_size <= 0 then
    invalid_arg "Bounds.s_max_requirement: non-positive message size";
  if max_channels_on_link_pair < 0 then
    invalid_arg "Bounds.s_max_requirement: negative channel count";
  control_message_size * max_channels_on_link_pair

let check_k k = if k < 1 then invalid_arg "Bounds: hop count must be at least 1"

(* Failure-reporting delay bound: (K−1)·D^RCC_max. *)
let failure_reporting_delay_bound ~k ~d_max =
  check_k k;
  float_of_int (k - 1) *. d_max

(* Activation-retrial delay bound: 2(b−1)(K−1)·D^RCC_max. *)
let activation_retrial_delay_bound ~k ~backups ~d_max =
  check_k k;
  if backups < 1 then invalid_arg "Bounds: need at least one backup";
  2.0 *. float_of_int (backups - 1) *. float_of_int (k - 1) *. d_max

let recovery_delay_bound ~k ~backups ~d_max =
  failure_reporting_delay_bound ~k ~d_max
  +. activation_retrial_delay_bound ~k ~backups ~d_max
