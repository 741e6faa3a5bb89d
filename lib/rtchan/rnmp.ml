type reject_reason = No_route | No_bandwidth

let pp_reject ppf = function
  | No_route -> Format.pp_print_string ppf "no admissible route"
  | No_bandwidth -> Format.pp_print_string ppf "insufficient bandwidth"

type t = {
  topo : Net.Topology.t;
  resources : Resource.t;
  mutable next_id : Channel.id;
}

let create topo = { topo; resources = Resource.create topo; next_id = 0 }

let resources t = t.resources

(* One admission check per bandwidth test of the primary search; the
   backup searches of D-connection establishment count into the same
   name. *)
let admission_checks = Sim.Prof.counter "establish.admission_checks"

let route ?reference t ~src ~dst ~traffic ~qos =
  let bw = Traffic.bandwidth traffic in
  match Routing.Shortest.shortest_hops ?reference t.topo ~src ~dst with
  | None -> Error No_route
  | Some shortest ->
    let budget = Qos.max_hops qos ~shortest in
    let link_ok id =
      Sim.Prof.incr admission_checks;
      Resource.can_reserve_primary t.resources id bw
    in
    (match
       Routing.Shortest.shortest_path ~link_ok ~max_hops:budget ?reference
         t.topo ~src ~dst
     with
    | Some p -> Ok p
    | None -> Error No_bandwidth)

let establish_on_path t ~path ~traffic ~qos =
  let bw = Traffic.bandwidth traffic in
  if Resource.reserve_primary_path t.resources path bw then begin
    let ch = { Channel.id = t.next_id; path; traffic; qos } in
    t.next_id <- t.next_id + 1;
    Ok ch
  end
  else Error No_bandwidth

let establish ?reference t ~src ~dst ~traffic ~qos =
  match route ?reference t ~src ~dst ~traffic ~qos with
  | Error e -> Error e
  | Ok path -> establish_on_path t ~path ~traffic ~qos

let teardown t ch =
  Resource.release_primary_path t.resources ch.Channel.path
    (Channel.bandwidth ch)
