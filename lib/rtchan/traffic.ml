type t = { max_msg_size : int; max_msg_rate : float; burst : int }

let make ?(burst = 1) ~max_msg_size ~max_msg_rate () =
  if max_msg_size <= 0 then invalid_arg "Traffic.make: non-positive message size";
  if max_msg_rate <= 0.0 then invalid_arg "Traffic.make: non-positive message rate";
  if burst <= 0 then invalid_arg "Traffic.make: non-positive burst";
  { max_msg_size; max_msg_rate; burst }

let bandwidth t =
  (* bytes/s -> Mbps *)
  float_of_int t.max_msg_size *. t.max_msg_rate *. 8.0 /. 1_000_000.0

let of_bandwidth mbps =
  if mbps <= 0.0 then invalid_arg "Traffic.of_bandwidth: non-positive bandwidth";
  let max_msg_size = 1000 in
  let max_msg_rate = mbps *. 1_000_000.0 /. (8.0 *. float_of_int max_msg_size) in
  { max_msg_size; max_msg_rate; burst = 1 }

let message_transmission_time t ~link_capacity =
  if link_capacity <= 0.0 then
    invalid_arg "Traffic.message_transmission_time: non-positive capacity";
  float_of_int (t.max_msg_size * 8) /. (link_capacity *. 1_000_000.0)
