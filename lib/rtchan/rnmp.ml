type reject_reason = No_route | No_bandwidth

let pp_reject ppf = function
  | No_route -> Format.pp_print_string ppf "no admissible route"
  | No_bandwidth -> Format.pp_print_string ppf "insufficient bandwidth"

type t = {
  topo : Net.Topology.t;
  resources : Resource.t;
  channels : (Channel.id, Channel.t) Hashtbl.t;
  on_link : (int, Channel.id list) Hashtbl.t;
  through_node : (int, Channel.id list) Hashtbl.t;
  mutable next_id : Channel.id;
}

let create topo =
  {
    topo;
    resources = Resource.create topo;
    channels = Hashtbl.create 1024;
    on_link = Hashtbl.create 256;
    through_node = Hashtbl.create 256;
    next_id = 0;
  }

let topology t = t.topo
let resources t = t.resources

let index_add tbl key v =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (v :: cur)

let index_remove tbl key v =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some l -> Hashtbl.replace tbl key (List.filter (fun x -> x <> v) l)

let register t ch =
  Hashtbl.replace t.channels ch.Channel.id ch;
  List.iter (fun l -> index_add t.on_link l ch.Channel.id) (Net.Path.links ch.Channel.path);
  List.iter
    (fun v -> index_add t.through_node v ch.Channel.id)
    (Net.Path.nodes t.topo ch.Channel.path)

let unregister t ch =
  Hashtbl.remove t.channels ch.Channel.id;
  List.iter
    (fun l -> index_remove t.on_link l ch.Channel.id)
    (Net.Path.links ch.Channel.path);
  List.iter
    (fun v -> index_remove t.through_node v ch.Channel.id)
    (Net.Path.nodes t.topo ch.Channel.path)

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
    let link_ok l =
      Sim.Prof.incr admission_checks;
      Resource.can_reserve_primary t.resources l.Net.Topology.id bw
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
    register t ch;
    Ok ch
  end
  else Error No_bandwidth

let establish ?reference t ~src ~dst ~traffic ~qos =
  match route ?reference t ~src ~dst ~traffic ~qos with
  | Error e -> Error e
  | Ok path -> establish_on_path t ~path ~traffic ~qos

let teardown t id =
  match Hashtbl.find_opt t.channels id with
  | None -> ()
  | Some ch ->
    Resource.release_primary_path t.resources ch.Channel.path
      (Channel.bandwidth ch);
    unregister t ch

let channel_count t = Hashtbl.length t.channels

let channels_on_link t l = Option.value ~default:[] (Hashtbl.find_opt t.on_link l)

let channels_through_node t v =
  Option.value ~default:[] (Hashtbl.find_opt t.through_node v)

let channels_disabled_by t failed =
  let ids =
    List.concat_map
      (function
        | Net.Component.Link l -> channels_on_link t l
        | Net.Component.Node v -> channels_through_node t v)
      failed
  in
  List.sort_uniq Int.compare ids
