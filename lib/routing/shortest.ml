let all_links_ok _ = true
let all_nodes_ok _ = true

(* Reusable per-domain BFS workspace.  Visitation is epoch-stamped
   ([stamp.(v) = epoch] means "seen this search"), so starting a search
   costs one integer bump instead of clearing three O(n) arrays; the
   arrays themselves grow monotonically to the largest topology searched
   in this domain.  Keyed by [Domain.DLS] because benchmark tiers run
   whole simulations on separate domains.  The [b*] twins back the
   reverse side of the bidirectional hop-count search. *)
type ws = {
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array;
  mutable queue : int array;
  mutable bdist : int array;
  mutable bstamp : int array;
  mutable bqueue : int array;
  mutable epoch : int;
}

let ws_key =
  Domain.DLS.new_key (fun () ->
      {
        dist = [||];
        parent = [||];
        stamp = [||];
        queue = [||];
        bdist = [||];
        bstamp = [||];
        bqueue = [||];
        epoch = 0;
      })

let get_ws n =
  let ws = Domain.DLS.get ws_key in
  if Array.length ws.dist < n then begin
    ws.dist <- Array.make n 0;
    ws.parent <- Array.make n (-1);
    ws.stamp <- Array.make n 0;
    ws.queue <- Array.make n 0;
    ws.bdist <- Array.make n 0;
    ws.bstamp <- Array.make n 0;
    ws.bqueue <- Array.make n 0;
    ws.epoch <- 0
  end;
  ws.epoch <- ws.epoch + 1;
  ws

(* Unconstrained BFS over one CSR direction through the epoch-stamped
   workspace; only the returned distance array is allocated. *)
let bfs_distances topo ~start { Net.Topology.off; peer; _ } =
  let n = Net.Topology.num_nodes topo in
  let ws = get_ws n in
  let epoch = ws.epoch in
  let dist = ws.dist and stamp = ws.stamp and queue = ws.queue in
  dist.(start) <- 0;
  stamp.(start) <- epoch;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = Array.unsafe_get dist u + 1 in
    for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
      let v = Array.unsafe_get peer i in
      if Array.unsafe_get stamp v <> epoch then begin
        Array.unsafe_set stamp v epoch;
        Array.unsafe_set dist v du1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Array.init n (fun v -> if stamp.(v) = epoch then dist.(v) else max_int)

let hop_distance topo ~src =
  bfs_distances topo ~start:src (Net.Topology.out_csr topo)

let hop_distance_to topo ~dst =
  bfs_distances topo ~start:dst (Net.Topology.in_csr topo)

(* BFS with admission predicates.  All hops cost 1, so plain BFS finds a
   minimum-hop path; parent links reconstruct it.  The scan runs over the
   CSR adjacency and the epoch-stamped workspace, so a search on
   an already-visited topology allocates only the returned path.

   With a finite [max_hops] budget the static oracle turns this into a
   goal-directed search: a node [v] first reached at distance [d] can
   only complete a path of at least [d + oracle(v, dst)] hops, so when
   that bound exceeds the budget [v] is never stamped and its out-links
   are never examined (in particular never admission-probed).  The bound
   is exact for the unconstrained metric and a lower bound for the
   constrained one, so no feasible ≤-budget path is lost; and because a
   pruned node could never appear on a surviving path, the stamping
   order — hence parents, hence the returned path — is byte-identical to
   the unpruned search.  [reference] turns the pruning off.  Each relaxed
   edge reads its link id and far end from the out-link CSR; [link_ok]
   takes the id, so no link record is loaded. *)
let search ?(link_ok = all_links_ok) ?(node_ok = all_nodes_ok) ?max_hops
    ~reference topo ~src ~dst =
  if src = dst then Some []
  else begin
    let n = Net.Topology.num_nodes topo in
    let ws = get_ws n in
    let epoch = ws.epoch in
    let dist = ws.dist and parent = ws.parent and stamp = ws.stamp in
    let queue = ws.queue in
    dist.(src) <- 0;
    stamp.(src) <- epoch;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let budget = match max_hops with Some b -> b | None -> max_int in
    let oracle =
      match max_hops with
      | Some _ when not reference -> (
        match Oracle.for_topo_opt topo with
        | Some o -> Some (Oracle.raw o, dst * Oracle.stride o)
        | None -> None)
      | _ -> None
    in
    let pruned = ref 0 in
    let found = ref false in
    let { Net.Topology.off; link; peer } = Net.Topology.out_csr topo in
    let visit u id v =
      if Array.unsafe_get stamp v <> epoch then begin
        let keep =
          match oracle with
          | None -> true
          | Some (row, base) ->
            let bound =
              Array.unsafe_get dist u + 1
              + Bigarray.Array1.unsafe_get row (base + v)
            in
            if bound > budget then begin
              incr pruned;
              false
            end
            else true
        in
        if keep && link_ok id && (v = dst || node_ok v) then begin
          Array.unsafe_set stamp v epoch;
          Array.unsafe_set dist v (Array.unsafe_get dist u + 1);
          Array.unsafe_set parent v id;
          if v = dst then found := true
          else begin
            queue.(!tail) <- v;
            incr tail
          end
        end
      end
    in
    while (not !found) && !head < !tail do
      let u = queue.(!head) in
      incr head;
      if dist.(u) < budget then
        for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          visit u (Array.unsafe_get link i) (Array.unsafe_get peer i)
        done
    done;
    if !pruned > 0 then Sim.Prof.count ~by:!pruned "route.pruned";
    if stamp.(dst) <> epoch || dist.(dst) > budget then None
    else begin
      let rec rebuild v acc =
        if v = src then acc
        else
          let id = parent.(v) in
          rebuild (Net.Topology.link topo id).Net.Topology.src (id :: acc)
      in
      Some (rebuild dst [])
    end
  end

let shortest_path ?link_ok ?node_ok ?max_hops ?(reference = false) topo ~src
    ~dst =
  match search ?link_ok ?node_ok ?max_hops ~reference topo ~src ~dst with
  | None -> None
  | Some links -> Some (Net.Path.make topo ~src ~dst ~links)

(* Level-synchronised bidirectional BFS for a constrained hop count.
   Forward levels grow from [src] over admissible out-links, backward
   levels from [dst] over admissible in-links; whenever a node is
   stamped on one side and already stamped on the other, [df + db] is a
   candidate path length, and the true length is the minimum candidate.
   After [flevel] forward and [blevel] backward completed levels, every
   path of length ≤ flevel + blevel has been found (its node at position
   flevel is stamped on both sides), so the search stops as soon as
   [best <= flevel + blevel + 1] — expanding further could only find
   strictly longer paths.  Always expanding the smaller frontier keeps
   the explored ball much smaller than a one-sided search. *)
let bidirectional_hops ~link_ok ~node_ok topo ~src ~dst =
  if src = dst then Some 0
  else begin
    let n = Net.Topology.num_nodes topo in
    let ws = get_ws n in
    let epoch = ws.epoch in
    let fdist = ws.dist and fstamp = ws.stamp and fqueue = ws.queue in
    let bdist = ws.bdist and bstamp = ws.bstamp and bqueue = ws.bqueue in
    fdist.(src) <- 0;
    fstamp.(src) <- epoch;
    fqueue.(0) <- src;
    bdist.(dst) <- 0;
    bstamp.(dst) <- epoch;
    bqueue.(0) <- dst;
    (* [lo, hi) indexes the current (complete) frontier level in each
       queue; newly stamped nodes append after [hi]. *)
    let flo = ref 0 and fhi = ref 1 and flevel = ref 0 in
    let blo = ref 0 and bhi = ref 1 and blevel = ref 0 in
    let best = ref max_int in
    let out = Net.Topology.out_csr topo and inl = Net.Topology.in_csr topo in
    let expand_forward () =
      let tail = ref !fhi in
      for qi = !flo to !fhi - 1 do
        let u = fqueue.(qi) in
        let du1 = Array.unsafe_get fdist u + 1 in
        for i = Array.unsafe_get out.off u to Array.unsafe_get out.off (u + 1) - 1 do
          let v = Array.unsafe_get out.peer i in
          if
            Array.unsafe_get fstamp v <> epoch
            && link_ok (Array.unsafe_get out.link i)
            && (v = dst || node_ok v)
          then begin
            Array.unsafe_set fstamp v epoch;
            Array.unsafe_set fdist v du1;
            fqueue.(!tail) <- v;
            incr tail;
            if Array.unsafe_get bstamp v = epoch then begin
              let cand = du1 + Array.unsafe_get bdist v in
              if cand < !best then best := cand
            end
          end
        done
      done;
      flo := !fhi;
      fhi := !tail;
      incr flevel
    in
    let expand_backward () =
      let tail = ref !bhi in
      for qi = !blo to !bhi - 1 do
        let u = bqueue.(qi) in
        let du1 = Array.unsafe_get bdist u + 1 in
        for i = Array.unsafe_get inl.off u to Array.unsafe_get inl.off (u + 1) - 1 do
          let v = Array.unsafe_get inl.peer i in
          if
            Array.unsafe_get bstamp v <> epoch
            && link_ok (Array.unsafe_get inl.link i)
            && (v = src || node_ok v)
          then begin
            Array.unsafe_set bstamp v epoch;
            Array.unsafe_set bdist v du1;
            bqueue.(!tail) <- v;
            incr tail;
            if Array.unsafe_get fstamp v = epoch then begin
              let cand = du1 + Array.unsafe_get fdist v in
              if cand < !best then best := cand
            end
          end
        done
      done;
      blo := !bhi;
      bhi := !tail;
      incr blevel
    in
    while
      !best > !flevel + !blevel + 1 && !fhi > !flo && !bhi > !blo
    do
      if !fhi - !flo <= !bhi - !blo then expand_forward ()
      else expand_backward ()
    done;
    if !best = max_int then None else Some !best
  end

let shortest_hops ?link_ok ?node_ok ?(reference = false) topo ~src ~dst =
  let one_sided () =
    match search ?link_ok ?node_ok ~reference:true topo ~src ~dst with
    | None -> None
    | Some links -> Some (List.length links)
  in
  if reference then one_sided ()
  else if Option.is_none link_ok && Option.is_none node_ok then
    (* Unconstrained feasibility query: the oracle answers in O(1). *)
    match Oracle.for_topo_opt topo with
    | None -> one_sided ()
    | Some o ->
      Sim.Prof.count "route.oracle_hits";
      let d = Oracle.distance o ~src ~dst in
      if d = max_int then None else Some d
  else
    bidirectional_hops
      ~link_ok:(Option.value ~default:all_links_ok link_ok)
      ~node_ok:(Option.value ~default:all_nodes_ok node_ok)
      topo ~src ~dst
