type backup_info = {
  backup : int;
  conn : int;
  serial : int;
  nu : float;
  bw : float;
  primary_components : int array;
}

let encode_component = function
  | Net.Component.Node v -> 2 * v
  | Net.Component.Link l -> (2 * l) + 1

let encode_components set =
  let a =
    Array.of_list (List.map encode_component (Net.Component.Set.elements set))
  in
  Array.sort Int.compare a;
  a

(* Reference intersection count: two-pointer merge over the sorted encoded
   arrays.  Kept as the fallback for candidates whose encodings do not fit
   the stamp array and as the oracle the stamped count is tested
   against. *)
let shared_count (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j acc =
    if i >= la || j >= lb then acc
    else if a.(i) = b.(j) then go (i + 1) (j + 1) (acc + 1)
    else if a.(i) < b.(j) then go (i + 1) j acc
    else go i (j + 1) acc
  in
  go 0 0 0

(* ---------------- stamped overlap counting ---------------- *)

let max_stamped = 65536 (* stamp array cap: bounds memory for hostile encodings *)

(* Per-domain stamp array, in the epoch idiom of [Establish.cost_ws]:
   [marks.(c) = epoch] exactly for the components of the candidate stamped
   last, and [owner] names that candidate — a probe's token, or [0] for a
   one-shot candidate ({!register}, {!required_with}) that nothing reuses.
   [epoch < 0] marks the merge fallback. *)
type stamps = {
  mutable marks : int array;
  mutable epoch : int;
  mutable owner : int;
}

let stamps_key =
  Domain.DLS.new_key (fun () -> { marks = [||]; epoch = 0; owner = 0 })

let merge_fallback = { marks = [||]; epoch = -1; owner = 0 }
let next_owner = Atomic.make 1

(* Stamp-array length [a] needs (its largest encoding + 1), or [-1] when
   an element is negative or beyond the stamp range. *)
let stamp_extent a =
  let lo = ref 0 and hi = ref (-1) in
  for k = 0 to Array.length a - 1 do
    let c = a.(k) in
    if c < !lo then lo := c;
    if c > !hi then hi := c
  done;
  if !lo < 0 || !hi >= max_stamped then -1 else !hi + 1

(* This domain's stamps holding [comps], stamped afresh unless [owner]
   (non-zero) stamped them last; {!merge_fallback} when [extent < 0]. *)
let stamp ~owner ~extent comps =
  if extent < 0 then merge_fallback
  else begin
    let ws = Domain.DLS.get stamps_key in
    if owner = 0 || ws.owner <> owner then begin
      let len = Array.length ws.marks in
      if extent > len then begin
        ws.marks <- Array.make (min max_stamped (max extent (2 * len))) 0;
        ws.epoch <- 0
      end;
      ws.epoch <- ws.epoch + 1;
      let marks = ws.marks and e = ws.epoch in
      for k = 0 to Array.length comps - 1 do
        Array.unsafe_set marks (Array.unsafe_get comps k) e
      done;
      ws.owner <- owner
    end;
    ws
  end

(* One test per peer component: O(|peer|).  Peer components outside the
   stamp array (negative or past its end) cannot be the candidate's, so any
   peer encoding is counted exactly. *)
let[@inline] stamped_overlap (marks : int array) (epoch : int) peer =
  let len = Array.length marks in
  let acc = ref 0 in
  for k = 0 to Array.length peer - 1 do
    let c = Array.unsafe_get peer k in
    if c >= 0 && c < len && Array.unsafe_get marks c = epoch then incr acc
  done;
  !acc

(* The stamps of a one-shot candidate. *)
let stamp_once comps = stamp ~owner:0 ~extent:(stamp_extent comps) comps

let stamped_count a peer =
  let ws = stamp_once a in
  if ws.epoch < 0 then None else Some (stamped_overlap ws.marks ws.epoch peer)

let register_count = Sim.Prof.counter "mux.register"
let unregister_count = Sim.Prof.counter "mux.unregister"
let probe_count = Sim.Prof.counter "mux.probe"
let scan_count = Sim.Prof.counter "mux.scan"
let scan_slots_count = Sim.Prof.counter "mux.scan_slots"
let s_values_count = Sim.Prof.counter "mux.s_values"

(* Per-link table, structure-of-arrays: each registered backup occupies a
   slot; parallel arrays hold the admission-scan hot fields (ν, bw, cached
   Π bandwidth) so the inner loops walk flat memory instead of chasing
   hashtable buckets.  [bids.(s) = -1] marks a free slot; freed slots are
   recycled LIFO so the live region stays dense under churn.  [index] maps
   a backup id to its slot — ids are network-global and sparse on any one
   link, so lookups stay a hashtable while all per-entry state is flat. *)
type link_table = {
  mutable n : int; (* slot watermark: slots in [0, n) exist *)
  mutable bids : int array; (* -1 = free *)
  mutable conns : int array;
  mutable serials : int array;
  mutable nus : float array;
  mutable bws : float array;
  mutable pi_bws : float array; (* cached Σ bw over Π *)
  mutable comps : int array array;
      (* sorted encoded primary components, shared by every link the
         backup is registered on *)
  mutable pis : Ids.Ivec.t array; (* Π as an ascending-sorted bid vector *)
  index : (int, int) Hashtbl.t; (* backup id -> slot *)
  mutable free : int array;
  mutable free_len : int;
  mutable live : int; (* registered backups *)
  mutable sum_bw : float; (* Σ bw over registered backups (exact) *)
  mutable requirement : float; (* cached spare requirement *)
}

type t = {
  tables : link_table array;
  lambda : float;
  mutable sink : (Sim.Event.t -> unit) option;
  pows : float array; (* (1-λ)^c for small c *)
  mutable stamp : int; (* bumped on every register/unregister *)
}

let create topo ~lambda =
  if lambda <= 0.0 || lambda >= 1.0 then
    invalid_arg "Mux.create: lambda must be in (0, 1)";
  {
    tables =
      Array.init (Net.Topology.num_links topo) (fun _ ->
          {
            n = 0;
            bids = [||];
            conns = [||];
            serials = [||];
            nus = [||];
            bws = [||];
            pi_bws = [||];
            comps = [||];
            pis = [||];
            index = Hashtbl.create 16;
            free = [||];
            free_len = 0;
            live = 0;
            sum_bw = 0.0;
            requirement = 0.0;
          });
    lambda;
    sink = None;
    (* Covers every exponent in practice: it is bounded by the component
       count of two paths, at most 2·(2·nodes+1). *)
    pows =
      Array.init
        (max 64 ((4 * Net.Topology.num_nodes topo) + 8))
        (fun c -> (1.0 -. lambda) ** float_of_int c);
    stamp = 0;
  }

let lambda t = t.lambda

let set_event_sink t s = t.sink <- s

let emit t ~link ~backup ~op ~pi ~psi =
  match t.sink with
  | None -> ()
  | Some f -> f (Sim.Event.Mux { link; backup; op; pi; psi })

let table t link =
  if link < 0 || link >= Array.length t.tables then
    invalid_arg (Printf.sprintf "Mux: unknown link %d" link);
  t.tables.(link)

(* (1-λ)^c from the table [create] fills (λ is fixed at creation).
   Computed with the same [Float.pow] expression as
   {!Reliability.Combinatorial.survival}, so tabulated and direct S-values
   are bit-identical.  This, [s_value] and [contribution] are inlined so
   the scan loops keep their floats unboxed: no allocation per peer. *)
let[@inline] pow t c =
  if c < Array.length t.pows then t.pows.(c)
  else (1.0 -. t.lambda) ** float_of_int c

(* S(candidate, peer), in the same expression shape as
   [Combinatorial.s_activation].  [marks]/[epoch] hold the candidate's
   stamps; [epoch < 0] counts by merging [comps] instead. *)
let[@inline] s_value t comps marks epoch peer =
  let c_i = Array.length comps and c_j = Array.length peer in
  let sc =
    if epoch < 0 then shared_count comps peer
    else stamped_overlap marks epoch peer
  in
  1.0 -. (pow t c_i +. pow t c_j -. pow t ((c_i + c_j) - sc))

(* Two backups of the same connection protect the same primary: they are
   never multiplexed together (both activate when the primary dies).
   b belongs to Π(a) iff ν_b ≤ ν_a and (same conn or S ≥ ν_a).  [register]
   and [admission_scan] test both directions from one S, computed up front
   exactly when one of the tests reads it: for a peer of another
   connection whose ν is ordered against the candidate's (any non-NaN
   ν). *)

let[@inline] contribution tab s = tab.bws.(s) +. tab.pi_bws.(s)

let grow_table tab =
  let cap = Array.length tab.bids in
  let ncap = max 8 (2 * cap) in
  let gi default a =
    let na = Array.make ncap default in
    Array.blit a 0 na 0 cap;
    na
  in
  tab.bids <- gi (-1) tab.bids;
  tab.conns <- gi 0 tab.conns;
  tab.serials <- gi 0 tab.serials;
  tab.nus <- gi 0.0 tab.nus;
  tab.bws <- gi 0.0 tab.bws;
  tab.pi_bws <- gi 0.0 tab.pi_bws;
  tab.comps <- gi [||] tab.comps;
  let npis = Array.make ncap (Ids.Ivec.create ()) in
  Array.blit tab.pis 0 npis 0 cap;
  for i = cap to ncap - 1 do
    npis.(i) <- Ids.Ivec.create ()
  done;
  tab.pis <- npis

let alloc_slot tab =
  if tab.free_len > 0 then begin
    tab.free_len <- tab.free_len - 1;
    tab.free.(tab.free_len)
  end
  else begin
    if tab.n = Array.length tab.bids then grow_table tab;
    let s = tab.n in
    tab.n <- tab.n + 1;
    s
  end

let free_slot tab s =
  tab.bids.(s) <- -1;
  tab.comps.(s) <- [||];
  Ids.Ivec.clear tab.pis.(s);
  if tab.free_len = Array.length tab.free then begin
    let nf = Array.make (max 8 (2 * tab.free_len)) 0 in
    Array.blit tab.free 0 nf 0 tab.free_len;
    tab.free <- nf
  end;
  tab.free.(tab.free_len) <- s;
  tab.free_len <- tab.free_len + 1

(* Register and unregister already visit every slot to update Π, so each
   takes the new requirement as the largest live contribution on the way:
   [Float.max 0.0] of it, or [0.0] on an empty link. *)
let register t ~link info =
  Sim.Prof.incr register_count;
  let tab = table t link in
  if Hashtbl.mem tab.index info.backup then
    invalid_arg
      (Printf.sprintf "Mux.register: backup %d already on link %d" info.backup
         link);
  let comps = info.primary_components in
  let ws = stamp_once comps in
  let marks = ws.marks and epoch = ws.epoch in
  let slot = alloc_slot tab in
  tab.bids.(slot) <- info.backup;
  tab.conns.(slot) <- info.conn;
  tab.serials.(slot) <- info.serial;
  tab.nus.(slot) <- info.nu;
  tab.bws.(slot) <- info.bw;
  tab.pi_bws.(slot) <- 0.0;
  tab.comps.(slot) <- comps;
  let fresh_pi = tab.pis.(slot) in
  let s_values = ref 0 in
  let req = ref neg_infinity in
  for s = 0 to tab.n - 1 do
    if s <> slot && tab.bids.(s) >= 0 then begin
      let nu_s = tab.nus.(s) in
      let below = nu_s <= info.nu and above = info.nu <= nu_s in
      let same = info.conn = tab.conns.(s) in
      let sv =
        if same || not (below || above) then 0.0
        else begin
          incr s_values;
          s_value t comps marks epoch tab.comps.(s)
        end
      in
      if below && (same || sv >= info.nu) then begin
        Ids.Ivec.insert_sorted fresh_pi tab.bids.(s);
        tab.pi_bws.(slot) <- tab.pi_bws.(slot) +. tab.bws.(s)
      end;
      if above && (same || sv >= nu_s) then begin
        Ids.Ivec.insert_sorted tab.pis.(s) info.backup;
        tab.pi_bws.(s) <- tab.pi_bws.(s) +. info.bw
      end;
      let c = contribution tab s in
      if c > !req then req := c
    end
  done;
  Sim.Prof.incr ~by:!s_values s_values_count;
  Hashtbl.add tab.index info.backup slot;
  tab.live <- tab.live + 1;
  tab.sum_bw <- tab.sum_bw +. info.bw;
  tab.requirement <- Float.max 0.0 (Float.max !req (contribution tab slot));
  t.stamp <- t.stamp + 1;
  emit t ~link ~backup:info.backup ~op:Sim.Event.Register
    ~pi:(Ids.Ivec.length fresh_pi)
    ~psi:(tab.live - Ids.Ivec.length fresh_pi - 1)

let unregister t ~link ~backup =
  let tab = table t link in
  match Hashtbl.find_opt tab.index backup with
  | None -> ()
  | Some victim ->
    Sim.Prof.incr unregister_count;
    let vbw = tab.bws.(victim) in
    let pi = Ids.Ivec.length tab.pis.(victim) in
    let psi = tab.live - pi - 1 in
    Hashtbl.remove tab.index backup;
    tab.live <- tab.live - 1;
    tab.sum_bw <- tab.sum_bw -. vbw;
    free_slot tab victim;
    let req = ref neg_infinity in
    for s = 0 to tab.n - 1 do
      if tab.bids.(s) >= 0 then begin
        if Ids.Ivec.mem_sorted tab.pis.(s) backup then begin
          Ids.Ivec.remove_sorted tab.pis.(s) backup;
          tab.pi_bws.(s) <- tab.pi_bws.(s) -. vbw
        end;
        let c = contribution tab s in
        if c > !req then req := c
      end
    done;
    tab.requirement <- Float.max 0.0 !req;
    t.stamp <- t.stamp + 1;
    emit t ~link ~backup ~op:Sim.Event.Unregister ~pi ~psi

let spare_requirement t ~link = (table t link).requirement

(* Exact admission scan: what the requirement would become with [info]
   added.  [ws] holds the stamps of its components. *)
let admission_scan t tab info ws =
  let comps = info.primary_components in
  let marks = ws.marks and epoch = ws.epoch in
  let own = ref info.bw in
  let req = ref tab.requirement in
  let s_values = ref 0 in
  for s = 0 to tab.n - 1 do
    if tab.bids.(s) >= 0 then begin
      let nu_s = tab.nus.(s) in
      let below = nu_s <= info.nu and above = info.nu <= nu_s in
      let same = info.conn = tab.conns.(s) in
      let sv =
        if same || not (below || above) then 0.0
        else begin
          incr s_values;
          s_value t comps marks epoch tab.comps.(s)
        end
      in
      if below && (same || sv >= info.nu) then own := !own +. tab.bws.(s);
      if above && (same || sv >= nu_s) then begin
        let c = contribution tab s +. info.bw in
        if c > !req then req := c
      end
    end
  done;
  Sim.Prof.incr scan_count;
  Sim.Prof.incr ~by:tab.n scan_slots_count;
  Sim.Prof.incr ~by:!s_values s_values_count;
  Float.max !own !req

let required_with t ~link info =
  let tab = table t link in
  if Hashtbl.mem tab.index info.backup then tab.requirement
  else admission_scan t tab info (stamp_once info.primary_components)

let info_of_slot tab s =
  {
    backup = tab.bids.(s);
    conn = tab.conns.(s);
    serial = tab.serials.(s);
    nu = tab.nus.(s);
    bw = tab.bws.(s);
    primary_components = tab.comps.(s);
  }

let on_link t ~link =
  let tab = table t link in
  let acc = ref [] in
  for s = tab.n - 1 downto 0 do
    if tab.bids.(s) >= 0 then acc := info_of_slot tab s :: !acc
  done;
  !acc

let mem t ~link ~backup = Hashtbl.mem (table t link).index backup

let count_on t ~link = (table t link).live

let find_slot t ~link ~backup =
  match Hashtbl.find_opt (table t link).index backup with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Mux: backup %d not on link %d" backup link)

let pi_size t ~link ~backup =
  let tab = table t link in
  Ids.Ivec.length tab.pis.(find_slot t ~link ~backup)

let psi_size t ~link ~backup =
  let tab = table t link in
  let s = find_slot t ~link ~backup in
  tab.live - Ids.Ivec.length tab.pis.(s) - 1

let psi_size_with t ~link info =
  let tab = table t link in
  let comps = info.primary_components in
  let ws = stamp_once comps in
  let pi = ref 0 in
  for s = 0 to tab.n - 1 do
    if
      tab.bids.(s) >= 0
      && tab.nus.(s) <= info.nu
      && (info.conn = tab.conns.(s)
         || s_value t comps ws.marks ws.epoch tab.comps.(s) >= info.nu)
    then incr pi
  done;
  tab.live - !pi

let conflict_set t ~link ~backup =
  let tab = table t link in
  Ids.Ivec.to_sorted_list tab.pis.(find_slot t ~link ~backup)

let max_requirement_victims t ~link =
  let tab = table t link in
  let out = ref [] in
  for s = 0 to tab.n - 1 do
    if
      tab.bids.(s) >= 0
      && Float.abs (contribution tab s -. tab.requirement) < 1e-9
    then out := tab.bids.(s) :: !out
  done;
  List.sort Int.compare !out

(* ---------------- candidate admission probes ---------------- *)

type probe = {
  pt : t;
  pinfo : backup_info;
  powner : int; (* stamp owner token, unique to this probe *)
  pextent : int; (* [stamp_extent] of the candidate's components *)
  mutable pstamp : int; (* [req_memo] valid while this matches [pt.stamp] *)
  req_memo : (int, float) Hashtbl.t; (* link -> required_with *)
}

let probe t info =
  Sim.Prof.incr probe_count;
  {
    pt = t;
    pinfo = info;
    powner = Atomic.fetch_and_add next_owner 1;
    pextent = stamp_extent info.primary_components;
    pstamp = t.stamp;
    req_memo = Hashtbl.create 16;
  }

let probe_required p ~link =
  if p.pstamp <> p.pt.stamp then begin
    Hashtbl.reset p.req_memo;
    p.pstamp <- p.pt.stamp
  end;
  match Hashtbl.find_opt p.req_memo link with
  | Some r -> r
  | None ->
    let tab = table p.pt link in
    let r =
      if Hashtbl.mem tab.index p.pinfo.backup then tab.requirement
      else
        admission_scan p.pt tab p.pinfo
          (stamp ~owner:p.powner ~extent:p.pextent
             p.pinfo.primary_components)
    in
    Hashtbl.add p.req_memo link r;
    r

(* Conservative O(1) ceiling on {!probe_required}: the candidate's own term
   is at most bw + Σ bw(registered), and every existing contribution grows
   by at most bw.  Used by admission fast-accept — when even the ceiling
   fits the link, the exact scan is skipped (the verdict is the same
   because the exact requirement is no larger). *)
let probe_upper_bound p ~link =
  let tab = table p.pt link in
  if Hashtbl.mem tab.index p.pinfo.backup then tab.requirement
  else p.pinfo.bw +. Float.max tab.sum_bw tab.requirement
