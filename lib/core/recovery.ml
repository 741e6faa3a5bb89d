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

(* Static recovery work, bumped once per {!simulate} call: scenarios,
   connections affected and excluded, healthy standby backups whose pools
   were tested, and activations. *)
let scenarios_count = Sim.Prof.counter "recovery.scenarios"
let affected_count = Sim.Prof.counter "recovery.affected"
let excluded_count = Sim.Prof.counter "recovery.excluded"
let tried_count = Sim.Prof.counter "recovery.backups_tried"
let activations_count = Sim.Prof.counter "recovery.activations"

(* Reusable per-domain scenario workspace, in the style of
   [Routing.Shortest]'s BFS workspace.  One epoch per call:
   - [left.(l)] is link [l]'s spare pool in this scenario iff
     [stamp.(l) = epoch]; a link is stamped when a backup over it is
     first tried, so no pool is ever copied whole;
   - [seen.(cid) = epoch] marks the primary channel [cid] as already
     collected, deduplicating connections hit by several components;
   - [down.(v) = epoch] marks node [v] failed, for end-node exclusion;
   - [broken.(bid) = epoch] marks backup [bid] as crossing a failed
     component.
   The epoch only ever grows, so arrays grown mid-life (fresh zeros)
   never alias a live stamp.  Keyed by [Domain.DLS]: sweeps run
   scenarios on several domains over one shared, read-only netstate. *)
type ws = {
  mutable epoch : int;
  mutable stamp : int array;
  mutable left : float array;
  mutable seen : int array;
  mutable down : int array;
  mutable broken : int array;
}

let ws_key =
  Domain.DLS.new_key (fun () ->
      {
        epoch = 0;
        stamp = [||];
        left = [||];
        seen = [||];
        down = [||];
        broken = [||];
      })

(* Acquire the workspace for one scenario on [topo]: a fresh epoch, with
   the in-range failed nodes of [failed] marked down (an id outside the
   topology lies on no path, so dropping it changes nothing). *)
let acquire topo failed =
  let ws = Domain.DLS.get ws_key in
  let nodes = Net.Topology.num_nodes topo and links = Net.Topology.num_links topo in
  if Array.length ws.stamp < links then begin
    ws.stamp <- Array.make links 0;
    ws.left <- Array.make links 0.0
  end;
  if Array.length ws.down < nodes then ws.down <- Array.make nodes 0;
  ws.epoch <- ws.epoch + 1;
  List.iter
    (function
      | Net.Component.Node v when v >= 0 && v < nodes -> ws.down.(v) <- ws.epoch
      | Net.Component.Node _ | Net.Component.Link _ -> ())
    failed;
  ws

(* [a], grown with zeros to hold index [i]. *)
let covering a i =
  let n = Array.length a in
  if i < n then a
  else begin
    let grown = Array.make (max (i + 1) (2 * n)) 0 in
    Array.blit a 0 grown 0 n;
    grown
  end

(* Mark [cid] collected this epoch; [false] if it already was. *)
let first_visit ws cid =
  ws.seen <- covering ws.seen cid;
  if ws.seen.(cid) = ws.epoch then false
  else begin
    ws.seen.(cid) <- ws.epoch;
    true
  end

(* Connections whose primary crosses a failed component, in the order the
   components list them and, within one component, by ascending primary
   channel id (first occurrence wins), minus those with a failed end
   node, which are only counted.  A connection's current primary channel
   is its own, so its id keys the deduplication. *)
let collect ws ns failed =
  let considered = ref [] and excluded = ref 0 in
  List.iter
    (fun comp ->
      List.iter
        (fun conn ->
          if first_visit ws conn.Dconn.primary.Rtchan.Channel.id then
            if
              ws.down.(conn.Dconn.src) = ws.epoch
              || ws.down.(conn.Dconn.dst) = ws.epoch
            then incr excluded
            else considered := conn :: !considered)
        (Netstate.conns_with_primary_on ns comp))
    failed;
  (List.rev !considered, !excluded)

let affected_conns ns ~failed =
  let ws = acquire (Netstate.topology ns) failed in
  collect ws ns failed

(* Stamp every backup registered on a failed component as broken.  Every
   standby backup is registered on every node and link of its path, so a
   standby backup left unstamped crosses no failed component. *)
let stamp_broken ws ns failed =
  List.iter
    (fun comp ->
      List.iter
        (fun (_, b) ->
          let bid = b.Dconn.bid in
          ws.broken <- covering ws.broken bid;
          ws.broken.(bid) <- ws.epoch)
        (Netstate.backups_using ns comp))
    failed

let healthy ws (b : Dconn.backup) =
  b.Dconn.state = Dconn.Standby
  && (b.Dconn.bid >= Array.length ws.broken || ws.broken.(b.Dconn.bid) <> ws.epoch)

let min_nu conn =
  List.fold_left (fun m b -> Float.min m b.Dconn.nu) infinity conn.Dconn.backups

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

(* One mux degree's (affected, recovered) counts. *)
type tally = { degree : int; mutable aff : int; mutable rec_ : int }

let rec insert t = function
  | u :: rest when u.degree < t.degree -> u :: insert t rest
  | above -> t :: above

(* The tally of [degree] in [tallies], kept ascending by degree. *)
let tally_of tallies degree =
  match List.find_opt (fun t -> t.degree = degree) !tallies with
  | Some t -> t
  | None ->
    let t = { degree; aff = 0; rec_ = 0 } in
    tallies := insert t !tallies;
    t

let simulate ?(order = By_id) ns ~failed =
  let res = Netstate.resources ns in
  let ws = acquire (Netstate.topology ns) failed in
  let considered, excluded = collect ws ns failed in
  if considered <> [] then stamp_broken ws ns failed;
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
  let tried = ref 0 in
  (* Healthy standby backups are tried in serial order; the first whose
     every link still has [bw] of pool draws it, by [Node]'s spare-pool
     rule. *)
  let try_activate conn =
    let bw = Dconn.bandwidth conn in
    let rec attempt any_healthy = function
      | [] -> if any_healthy then Mux_failure else No_healthy_backup
      | b :: rest ->
        if healthy ws b then begin
          incr tried;
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
  let no_healthy = ref 0 and outcomes = ref [] and tallies = ref [] in
  List.iter
    (fun conn ->
      let o = try_activate conn in
      let t = tally_of tallies (Dconn.mux_degree conn ~lambda) in
      t.aff <- t.aff + 1;
      (match o with
      | Recovered _ ->
        incr recovered;
        t.rec_ <- t.rec_ + 1
      | Mux_failure -> incr mux_failures
      | No_healthy_backup -> incr no_healthy);
      incr affected;
      outcomes := (conn.Dconn.id, o) :: !outcomes)
    ordered;
  Sim.Prof.incr scenarios_count;
  Sim.Prof.incr ~by:!affected affected_count;
  Sim.Prof.incr ~by:excluded excluded_count;
  Sim.Prof.incr ~by:!tried tried_count;
  Sim.Prof.incr ~by:!recovered activations_count;
  {
    affected = !affected;
    excluded;
    recovered = !recovered;
    mux_failures = !mux_failures;
    no_healthy_backup = !no_healthy;
    outcomes = List.rev !outcomes;
    per_degree = List.map (fun t -> (t.degree, (t.aff, t.rec_))) !tallies;
  }
