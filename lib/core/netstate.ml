type spare_policy = Multiplexed | Brute_force of float

type t = {
  topo : Net.Topology.t;
  rnmp : Rtchan.Rnmp.t;
  mux : Mux.t;
  policy : spare_policy;
  lambda : float;
  dconns : (int, Dconn.t) Hashtbl.t;
  (* Flat indexes keyed by dense ids: backup ids come from [bid_ids] (a
     pure watermark — never released, so the bid stream is stable),
     primary channel ids from RNMP's own counter, links and nodes from the
     topology.  The per-link/per-node bid vectors mirror the old cons-list
     indexes: push = cons, newest-first iteration preserved by
     [Ivec.to_list_rev]. *)
  bid_ids : Ids.t;
  by_bid : (Dconn.t * Dconn.backup) option Ids.Slab.t;
  by_primary : Dconn.t option Ids.Slab.t; (* primary channel id -> conn *)
  backups_on_link : Ids.Ivec.t array; (* link -> bids, insertion order *)
  backups_through_node : Ids.Ivec.t array;
  (* Bumped by every mutator below, so state derived from the whole
     network (the event-driven simulator's channel template) can be
     cached under (physical netstate, generation). *)
  mutable generation : int;
}

let create ?(lambda = 1e-4) ?(policy = Multiplexed) topo () =
  let rnmp = Rtchan.Rnmp.create topo in
  (match policy with
  | Multiplexed -> ()
  | Brute_force spare ->
    if spare < 0.0 then invalid_arg "Netstate.create: negative brute-force spare";
    Net.Topology.iter_links topo (fun l ->
        Rtchan.Resource.set_spare (Rtchan.Rnmp.resources rnmp) l.Net.Topology.id
          (Float.min spare l.Net.Topology.capacity)));
  let num_links = Net.Topology.num_links topo in
  {
    topo;
    rnmp;
    mux = Mux.create topo ~lambda;
    policy;
    lambda;
    dconns = Hashtbl.create 1024;
    bid_ids = Ids.create ~expected:1024 ~kind:"backup" ();
    by_bid = Ids.Slab.create ~expected:1024 ~kind:"by_bid" ~default:None ();
    by_primary =
      Ids.Slab.create ~expected:1024 ~kind:"by_primary" ~default:None ();
    backups_on_link = Array.init num_links (fun _ -> Ids.Ivec.create ());
    backups_through_node =
      Array.init (Net.Topology.num_nodes topo) (fun _ -> Ids.Ivec.create ());
    generation = 0;
  }

let topology t = t.topo
let rnmp t = t.rnmp
let resources t = Rtchan.Rnmp.resources t.rnmp
let mux t = t.mux
let lambda t = t.lambda
let policy t = t.policy

(* Backup ids are never recycled: they appear in telemetry, traces and
   benchmark artifacts, so the stream must be a pure watermark. *)
let fresh_backup_id t = Ids.fresh t.bid_ids

let generation t = t.generation

let bump t = t.generation <- t.generation + 1

let backup_info_of (conn : Dconn.t) (b : Dconn.backup) ~primary_components =
  {
    Mux.backup = b.Dconn.bid;
    conn = conn.Dconn.id;
    serial = b.Dconn.serial;
    nu = b.Dconn.nu;
    bw = Dconn.bandwidth conn;
    primary_components;
  }

let refresh_spare t ~link =
  bump t;
  match t.policy with
  | Brute_force _ -> ()
  | Multiplexed ->
    let req = Mux.spare_requirement t.mux ~link in
    Rtchan.Resource.set_spare (resources t) link req

let register_backup t conn (b : Dconn.backup) ~primary_components =
  bump t;
  let info = backup_info_of conn b ~primary_components in
  List.iter
    (fun link ->
      Mux.register t.mux ~link info;
      refresh_spare t ~link;
      Ids.Ivec.push t.backups_on_link.(link) b.Dconn.bid)
    (Net.Path.links b.Dconn.path);
  List.iter
    (fun v -> Ids.Ivec.push t.backups_through_node.(v) b.Dconn.bid)
    (Net.Path.nodes t.topo b.Dconn.path);
  Ids.Slab.set t.by_bid b.Dconn.bid (Some (conn, b))

let unregister_backup t conn (b : Dconn.backup) =
  bump t;
  List.iter
    (fun link ->
      Mux.unregister t.mux ~link ~backup:b.Dconn.bid;
      refresh_spare t ~link;
      Ids.Ivec.remove_first t.backups_on_link.(link) b.Dconn.bid)
    (Net.Path.links b.Dconn.path);
  List.iter
    (fun v -> Ids.Ivec.remove_first t.backups_through_node.(v) b.Dconn.bid)
    (Net.Path.nodes t.topo b.Dconn.path);
  ignore conn;
  Ids.Slab.clear_id t.by_bid b.Dconn.bid

(* Admission fast-accepts on the O(1) conservative ceiling and falls back
   to the exact O(entries) scan only when the ceiling does not fit; the
   verdict is identical because the ceiling is never below the exact
   requirement and [can_set_spare] is monotone. *)
let backup_admissible_probe t probe ~link =
  match t.policy with
  | Brute_force _ -> true
  | Multiplexed ->
    let res = resources t in
    Rtchan.Resource.can_set_spare res link (Mux.probe_upper_bound probe ~link)
    || Rtchan.Resource.can_set_spare res link (Mux.probe_required probe ~link)

let add_dconn t conn =
  if Hashtbl.mem t.dconns conn.Dconn.id then
    invalid_arg (Printf.sprintf "Netstate.add_dconn: duplicate id %d" conn.Dconn.id);
  Hashtbl.replace t.dconns conn.Dconn.id conn;
  bump t;
  Ids.Slab.set t.by_primary conn.Dconn.primary.Rtchan.Channel.id (Some conn)

let remove_dconn t id =
  match Hashtbl.find_opt t.dconns id with
  | None -> ()
  | Some conn ->
    bump t;
    List.iter (fun b -> unregister_backup t conn b) conn.Dconn.backups;
    Rtchan.Rnmp.teardown t.rnmp conn.Dconn.primary.Rtchan.Channel.id;
    Ids.Slab.clear_id t.by_primary conn.Dconn.primary.Rtchan.Channel.id;
    Hashtbl.remove t.dconns id

let replace_primary t (conn : Dconn.t) ch =
  bump t;
  Ids.Slab.clear_id t.by_primary conn.Dconn.primary.Rtchan.Channel.id;
  conn.Dconn.primary <- ch;
  Ids.Slab.set t.by_primary ch.Rtchan.Channel.id (Some conn)

let find t id = Hashtbl.find_opt t.dconns id
let dconns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.dconns []
let dconn_count t = Hashtbl.length t.dconns

let spare_pool t =
  Array.init (Net.Topology.num_links t.topo) (fun l ->
      Rtchan.Resource.spare (resources t) l)

let backups_using t comp =
  let index, i =
    match comp with
    | Net.Component.Link l -> (t.backups_on_link, l)
    | Net.Component.Node v -> (t.backups_through_node, v)
  in
  (* An id outside the topology lies on no path. *)
  if i < 0 || i >= Array.length index then []
  else
    List.filter_map
      (fun bid -> Ids.Slab.get t.by_bid bid)
      (Ids.Ivec.to_list_rev index.(i))

(* RNMP lists a component's channels newest first, and channel ids are
   issued in increasing order, so each list is strictly descending: the
   consing fold yields them ascending with no sort. *)
let conns_with_primary_on t comp =
  let ids =
    match comp with
    | Net.Component.Link l -> Rtchan.Rnmp.channels_on_link t.rnmp l
    | Net.Component.Node v -> Rtchan.Rnmp.channels_through_node t.rnmp v
  in
  List.fold_left
    (fun acc cid ->
      match Ids.Slab.get t.by_primary cid with Some c -> c :: acc | None -> acc)
    [] ids

let network_load t = Rtchan.Resource.network_load (resources t)
let spare_fraction t = Rtchan.Resource.spare_fraction (resources t)
