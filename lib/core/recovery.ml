type order = By_id | Shuffled of Sim.Prng.t | By_priority

type conn_outcome = Recovered of int | Mux_failure | No_healthy_backup

type result = {
  affected : int;
  excluded : int;
  recovered : int;
  mux_failures : int;
  no_healthy_backup : int;
  outcomes : (int * conn_outcome) list;
  per_degree : (int * (int * int)) list;
}

let r_fast r =
  if r.affected = 0 then 100.0 else Sim.Stats.ratio r.recovered r.affected

let r_fast_of_degree r degree =
  match List.assoc_opt degree r.per_degree with
  | None | Some (0, _) -> 100.0
  | Some (affected, recovered) -> Sim.Stats.ratio recovered affected

(* Reusable per-domain scenario workspace, in the style of
   [Routing.Shortest]'s BFS workspace.  One epoch per call:
   - [left.(l)] is link [l]'s spare pool in this scenario iff
     [stamp.(l) = epoch]; a link is stamped when a backup over it is
     first tried, so no pool is ever copied whole;
   - [seen.(cid) = epoch] marks the primary channel [cid] as already
     collected, deduplicating connections hit by several components.
   The epoch only ever grows, so arrays grown mid-life (fresh zeros)
   never alias a live stamp.  Keyed by [Domain.DLS]: sweeps run
   scenarios on several domains over one shared, read-only netstate. *)
type ws = {
  mutable epoch : int;
  mutable stamp : int array;
  mutable left : float array;
  mutable seen : int array;
}

let ws_key =
  Domain.DLS.new_key (fun () ->
      { epoch = 0; stamp = [||]; left = [||]; seen = [||] })

(* Acquire the workspace for one scenario on [topo]: a fresh epoch, and
   the domain's scratch mask holding the in-range components of [failed]
   (an id outside the topology lies on no path, so dropping it changes
   nothing).  Nothing in a scenario routes, so no other user reacquires
   the scratch mask while it is live. *)
let acquire topo failed =
  let ws = Domain.DLS.get ws_key in
  let nodes = Net.Topology.num_nodes topo and links = Net.Topology.num_links topo in
  if Array.length ws.stamp < links then begin
    ws.stamp <- Array.make links 0;
    ws.left <- Array.make links 0.0
  end;
  ws.epoch <- ws.epoch + 1;
  let mask = Net.Component.Mask.scratch ~num_nodes:nodes ~num_links:links in
  List.iter
    (fun c ->
      let in_range =
        match c with
        | Net.Component.Node v -> v >= 0 && v < nodes
        | Net.Component.Link l -> l >= 0 && l < links
      in
      if in_range then Net.Component.Mask.add mask c)
    failed;
  (ws, mask)

(* Mark [cid] collected this epoch; [false] if it already was. *)
let first_visit ws cid =
  let n = Array.length ws.seen in
  if cid >= n then begin
    let grown = Array.make (max (cid + 1) (2 * n)) 0 in
    Array.blit ws.seen 0 grown 0 n;
    ws.seen <- grown
  end;
  if ws.seen.(cid) = ws.epoch then false
  else begin
    ws.seen.(cid) <- ws.epoch;
    true
  end

(* Connections whose primary crosses a failed component, in the order the
   components list them (first occurrence wins), minus those with a
   failed end node, which are only counted.  A connection's current
   primary channel is its own, so its id keys the deduplication. *)
let collect ws mask ns failed =
  let considered = ref [] and excluded = ref 0 in
  List.iter
    (fun comp ->
      List.iter
        (fun conn ->
          if first_visit ws conn.Dconn.primary.Rtchan.Channel.id then
            if
              Net.Component.Mask.mem_node mask conn.Dconn.src
              || Net.Component.Mask.mem_node mask conn.Dconn.dst
            then incr excluded
            else considered := conn :: !considered)
        (Netstate.conns_with_primary_on ns comp))
    failed;
  (List.rev !considered, !excluded)

let affected_conns ns ~failed =
  let ws, mask = acquire (Netstate.topology ns) failed in
  collect ws mask ns failed

let min_nu conn =
  List.fold_left (fun m b -> Float.min m b.Dconn.nu) infinity conn.Dconn.backups

(* A path is healthy when none of its components failed: its source and,
   for every link, the link and the node it enters.  Top-level recursion
   rather than closures, so the walk allocates nothing. *)
let rec links_healthy topo mask links i =
  i = Array.length links
  || (not (Net.Component.Mask.mem_link mask links.(i)))
     && (not
           (Net.Component.Mask.mem_node mask
              (Net.Topology.link_unsafe topo links.(i)).Net.Topology.dst))
     && links_healthy topo mask links (i + 1)

let path_healthy topo mask (path : Net.Path.t) =
  (not (Net.Component.Mask.mem_node mask path.src))
  && links_healthy topo mask path.links 0

(* Stamp every link of [links] into this scenario's pools, an unstamped
   one at the netstate's own spare.  Nothing changes the netstate during
   a scenario, so every float is the one a fresh copy of the pools would
   hold. *)
let load ws res links =
  for i = 0 to Array.length links - 1 do
    let l = links.(i) in
    if ws.stamp.(l) <> ws.epoch then begin
      ws.left.(l) <- Rtchan.Resource.spare res l;
      ws.stamp.(l) <- ws.epoch
    end
  done

let simulate ?(order = By_id) ns ~failed =
  let topo = Netstate.topology ns in
  let res = Netstate.resources ns in
  let ws, mask = acquire topo failed in
  let considered, excluded = collect ws mask ns failed in
  let ordered =
    match order with
    | By_id -> List.sort (fun a b -> Int.compare a.Dconn.id b.Dconn.id) considered
    | Shuffled rng ->
      Sim.Prng.shuffle_list rng
        (List.sort (fun a b -> Int.compare a.Dconn.id b.Dconn.id) considered)
    | By_priority ->
      List.sort
        (fun a b ->
          match Float.compare (min_nu a) (min_nu b) with
          | 0 -> Int.compare a.Dconn.id b.Dconn.id
          | c -> c)
        considered
  in
  (* Healthy standby backups are tried in serial order; the first whose
     every link still has [bw] of pool draws it, by [Node]'s spare-pool
     rule. *)
  let try_activate conn =
    let bw = Dconn.bandwidth conn in
    let rec attempt any_healthy = function
      | [] -> if any_healthy then Mux_failure else No_healthy_backup
      | b :: rest ->
        if b.Dconn.state = Dconn.Standby && path_healthy topo mask b.Dconn.path
        then begin
          let links = b.Dconn.path.Net.Path.links in
          load ws res links;
          if Node.fits ws.left links bw then begin
            Node.draw ws.left links bw;
            Recovered b.Dconn.serial
          end
          else attempt true rest
        end
        else attempt any_healthy rest
    in
    attempt false conn.Dconn.backups
  in
  let lambda = Netstate.lambda ns in
  let affected = ref 0 and recovered = ref 0 and mux_failures = ref 0 in
  let no_healthy = ref 0 and outcomes = ref [] in
  let degree_tbl = Hashtbl.create 8 in
  List.iter
    (fun conn ->
      let o = try_activate conn in
      let d = Dconn.mux_degree conn ~lambda in
      let aff, rec_ = Option.value ~default:(0, 0) (Hashtbl.find_opt degree_tbl d) in
      let rec_ =
        match o with
        | Recovered _ ->
          incr recovered;
          rec_ + 1
        | Mux_failure ->
          incr mux_failures;
          rec_
        | No_healthy_backup ->
          incr no_healthy;
          rec_
      in
      Hashtbl.replace degree_tbl d (aff + 1, rec_);
      incr affected;
      outcomes := (conn.Dconn.id, o) :: !outcomes)
    ordered;
  {
    affected = !affected;
    excluded;
    recovered = !recovered;
    mux_failures = !mux_failures;
    no_healthy_backup = !no_healthy;
    outcomes = List.rev !outcomes;
    per_degree =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Hashtbl.fold (fun d v acc -> (d, v) :: acc) degree_tbl []);
  }
