module Regulator = struct
  type t = {
    traffic : Traffic.t;
    mutable tokens : float;
    mutable last_refill : float;
  }

  let create traffic =
    { traffic; tokens = float_of_int traffic.Traffic.burst; last_refill = 0.0 }

  let refill t ~now =
    if now > t.last_refill then begin
      let accrued = (now -. t.last_refill) *. t.traffic.Traffic.max_msg_rate in
      t.tokens <-
        Float.min
          (float_of_int t.traffic.Traffic.burst)
          (t.tokens +. accrued);
      t.last_refill <- now
    end

  let eligible_at t ~now =
    refill t ~now;
    if t.tokens >= 1.0 then begin
      t.tokens <- t.tokens -. 1.0;
      now
    end
    else begin
      let deficit = 1.0 -. t.tokens in
      let wait = deficit /. t.traffic.Traffic.max_msg_rate in
      t.tokens <- 0.0;
      t.last_refill <- now +. wait;
      now +. wait
    end
end

module Hop_delay = struct
  type t = { propagation : float; processing : float }

  let default = { propagation = 10e-6; processing = 5e-6 }

  let forwarding_delay t traffic ~link_capacity ~contention =
    if contention < 0 then invalid_arg "Rmtp.forwarding_delay: negative contention";
    let tx = Traffic.message_transmission_time traffic ~link_capacity in
    (tx *. float_of_int (contention + 1)) +. t.propagation +. t.processing

  let path_delay_bound t traffic topo path ~contention =
    List.fold_left
      (fun acc id ->
        let cap = (Net.Topology.link topo id).Net.Topology.capacity in
        acc +. forwarding_delay t traffic ~link_capacity:cap ~contention)
      0.0 (Net.Path.links path)
end

let delay_test hd traffic qos topo path ~contention =
  match qos.Qos.delay_bound with
  | None -> true
  | Some bound ->
    Hop_delay.path_delay_bound hd traffic topo path ~contention <= bound
