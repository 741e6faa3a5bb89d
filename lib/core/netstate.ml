type spare_policy = Multiplexed | Brute_force of float

(* What sits on one link or node, oldest first.  [push] appends and
   [drop] removes in place, keeping the others' order, so neither
   allocates once the array has grown: removing from a list copies every
   newer entry, which on churn16 doubled the words promoted per op.
   Slots past [len] hold no entry of their own. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

(* Remove the first entry [is_x] accepts; no-op when there is none. *)
let drop v is_x =
  let rec find i =
    if i >= v.len then -1 else if is_x v.items.(i) then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    Array.blit v.items (i + 1) v.items i (v.len - i - 1);
    v.len <- v.len - 1;
    if v.len = 0 then v.items <- [||] else v.items.(v.len) <- v.items.(0)
  end

type 'a index = { on_link : 'a vec array; through_node : 'a vec array }

type t = {
  topo : Net.Topology.t;
  rnmp : Rtchan.Rnmp.t;
  res : Rtchan.Resource.t; (* RNMP's, read by every admission check *)
  mux : Mux.t;
  policy : spare_policy;
  lambda : float;
  dconns : (int, Dconn.t) Hashtbl.t;
  (* The connections whose primary holds its reservation, and every
     registered backup with its connection (one pair per backup, shared by
     each vector it is on).  Primary channel ids are issued in increasing
     order, and a primary is placed before the next id is issued, so each
     primary vector is strictly ascending by channel id. *)
  primaries : Dconn.t index;
  backups : (Dconn.t * Dconn.backup) index;
  (* Backup ids are never recycled: they appear in telemetry, traces and
     benchmark artifacts, so the stream is a plain counter. *)
  mutable next_bid : int;
  (* Bumped by every mutator below, so state derived from the whole
     network (the event-driven simulator's channel template) can be
     cached under (physical netstate, generation). *)
  mutable generation : int;
}

let create_index topo =
  let vecs n = Array.init n (fun _ -> { items = [||]; len = 0 }) in
  {
    on_link = vecs (Net.Topology.num_links topo);
    through_node = vecs (Net.Topology.num_nodes topo);
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
  {
    topo;
    rnmp;
    res = Rtchan.Rnmp.resources rnmp;
    mux = Mux.create topo ~lambda;
    policy;
    lambda;
    dconns = Hashtbl.create 1024;
    primaries = create_index topo;
    backups = create_index topo;
    next_bid = 0;
    generation = 0;
  }

let topology t = t.topo
let rnmp t = t.rnmp
let resources t = t.res
let mux t = t.mux
let lambda t = t.lambda
let policy t = t.policy

let fresh_backup_id t =
  let bid = t.next_bid in
  t.next_bid <- bid + 1;
  bid

let generation t = t.generation

let bump t = t.generation <- t.generation + 1

(* [f] on each link of the path, then on each of its nodes: the source,
   then the node each link enters.  Read off the link array, with no
   list built. *)
let iter_path t index path f =
  let links = path.Net.Path.links in
  Array.iter (fun l -> f index.on_link.(l)) links;
  f index.through_node.(path.Net.Path.src);
  Array.iter
    (fun l ->
      f index.through_node.((Net.Topology.link t.topo l).Net.Topology.dst))
    links

let place t index path x = iter_path t index path (fun v -> push v x)
let unplace t index path is_x = iter_path t index path (fun v -> drop v is_x)

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
  Array.iter
    (fun link ->
      Mux.register t.mux ~link info;
      refresh_spare t ~link)
    b.Dconn.path.Net.Path.links;
  place t t.backups b.Dconn.path (conn, b)

let unregister_backup t (_ : Dconn.t) (b : Dconn.backup) =
  bump t;
  Array.iter
    (fun link ->
      Mux.unregister t.mux ~link ~backup:b.Dconn.bid;
      refresh_spare t ~link)
    b.Dconn.path.Net.Path.links;
  unplace t t.backups b.Dconn.path (fun (_, b') -> b'.Dconn.bid = b.Dconn.bid)

(* Admission fast-accepts on the O(1) conservative ceiling and falls back
   to the exact O(entries) scan only when the ceiling does not fit; the
   verdict is identical because the ceiling is never below the exact
   requirement and [can_set_spare] is monotone. *)
let backup_admissible_probe t probe ~link =
  match t.policy with
  | Brute_force _ -> true
  | Multiplexed ->
    Rtchan.Resource.can_set_spare t.res link (Mux.probe_upper_bound probe ~link)
    || Rtchan.Resource.can_set_spare t.res link
         (Mux.probe_required probe ~link)

let add_dconn t conn =
  if Hashtbl.mem t.dconns conn.Dconn.id then
    invalid_arg (Printf.sprintf "Netstate.add_dconn: duplicate id %d" conn.Dconn.id);
  Hashtbl.replace t.dconns conn.Dconn.id conn;
  bump t;
  if conn.Dconn.primary_alive then
    place t t.primaries conn.Dconn.primary.Rtchan.Channel.path conn

(* An establishment rolling back releases a primary that was never
   placed; [unplace] then finds nothing to drop. *)
let release_primary t (conn : Dconn.t) =
  if conn.Dconn.primary_alive then begin
    bump t;
    conn.Dconn.primary_alive <- false;
    Rtchan.Rnmp.teardown t.rnmp conn.Dconn.primary;
    unplace t t.primaries conn.Dconn.primary.Rtchan.Channel.path (fun c ->
        c == conn)
  end

let remove_dconn t id =
  match Hashtbl.find_opt t.dconns id with
  | None -> ()
  | Some conn ->
    bump t;
    (* Only a [Standby] backup is still registered: closing, breaking or
       promoting one unregistered it already. *)
    List.iter
      (fun b -> if b.Dconn.state = Dconn.Standby then unregister_backup t conn b)
      conn.Dconn.backups;
    release_primary t conn;
    Hashtbl.remove t.dconns id

let replace_primary t (conn : Dconn.t) ch =
  release_primary t conn;
  conn.Dconn.primary <- ch;
  conn.Dconn.primary_alive <- true;
  place t t.primaries ch.Rtchan.Channel.path conn

let find t id = Hashtbl.find_opt t.dconns id
let dconns t = Hashtbl.fold (fun _ c acc -> c :: acc) t.dconns []

let spare_pool t =
  Array.init (Net.Topology.num_links t.topo) (fun l ->
      Rtchan.Resource.spare (resources t) l)

(* An id outside the topology lies on no path. *)
let on index comp =
  let vecs, i =
    match comp with
    | Net.Component.Link l -> (index.on_link, l)
    | Net.Component.Node v -> (index.through_node, v)
  in
  if i < 0 || i >= Array.length vecs then { items = [||]; len = 0 }
  else vecs.(i)

let backups_using t comp =
  let v = on t.backups comp in
  let rec newest_first i acc =
    if i >= v.len then acc else newest_first (i + 1) (v.items.(i) :: acc)
  in
  newest_first 0 []

let conns_with_primary_on t comp =
  let v = on t.primaries comp in
  let rec ascending i acc =
    if i < 0 then acc else ascending (i - 1) (v.items.(i) :: acc)
  in
  ascending (v.len - 1) []

let network_load t = Rtchan.Resource.network_load (resources t)
let spare_fraction t = Rtchan.Resource.spare_fraction (resources t)
