type reject_reason = No_route | No_bandwidth

let pp_reject ppf = function
  | No_route -> Format.pp_print_string ppf "no admissible route"
  | No_bandwidth -> Format.pp_print_string ppf "insufficient bandwidth"

(* Drop the first [x] from an id list, comparing ints only. *)
let rec remove_id (x : int) = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_id x rest

type t = {
  topo : Net.Topology.t;
  resources : Resource.t;
  channels : (Channel.id, Channel.t) Hashtbl.t;
  on_link : Channel.id list array; (* link id -> channels, newest first *)
  through_node : Channel.id list array; (* node id -> channels, newest first *)
  mutable next_id : Channel.id;
}

let create topo =
  {
    topo;
    resources = Resource.create topo;
    channels = Hashtbl.create 1024;
    on_link = Array.make (Net.Topology.num_links topo) [];
    through_node = Array.make (Net.Topology.num_nodes topo) [];
    next_id = 0;
  }

let resources t = t.resources

let register t ch =
  let id = ch.Channel.id in
  Hashtbl.replace t.channels id ch;
  List.iter
    (fun l -> t.on_link.(l) <- id :: t.on_link.(l))
    (Net.Path.links ch.Channel.path);
  List.iter
    (fun v -> t.through_node.(v) <- id :: t.through_node.(v))
    (Net.Path.nodes t.topo ch.Channel.path)

let unregister t ch =
  let id = ch.Channel.id in
  Hashtbl.remove t.channels id;
  List.iter
    (fun l -> t.on_link.(l) <- remove_id id t.on_link.(l))
    (Net.Path.links ch.Channel.path);
  List.iter
    (fun v -> t.through_node.(v) <- remove_id id t.through_node.(v))
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

let channels_in index i =
  if i < 0 || i >= Array.length index then [] else index.(i)

let channels_on_link t l = channels_in t.on_link l
let channels_through_node t v = channels_in t.through_node v
