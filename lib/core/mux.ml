type backup_info = {
  backup : int;
  conn : int;
  serial : int;
  nu : float;
  bw : float;
  primary_components : int array;
}

(* The path's nodes (its source, then the node each link enters) as
   [2v] and its links as [2l + 1], sorted, with any repeat dropped: the
   encoding of [Net.Path.components], built without the set. *)
let encode_path topo (p : Net.Path.t) =
  let links = p.Net.Path.links in
  let h = Array.length links in
  let a = Array.make ((2 * h) + 1) (2 * p.Net.Path.src) in
  for i = 0 to h - 1 do
    let l = links.(i) in
    a.((2 * i) + 1) <- (2 * l) + 1;
    a.((2 * i) + 2) <- 2 * (Net.Topology.link topo l).Net.Topology.dst
  done;
  Array.sort Int.compare a;
  let n = ref 1 in
  for i = 1 to Array.length a - 1 do
    if a.(i) <> a.(!n - 1) then begin
      a.(!n) <- a.(i);
      incr n
    end
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let register_count = Sim.Prof.counter "mux.register"
let unregister_count = Sim.Prof.counter "mux.unregister"
let probe_count = Sim.Prof.counter "mux.probe"
let scan_count = Sim.Prof.counter "mux.scan"
let scan_slots_count = Sim.Prof.counter "mux.scan_slots"
let s_values_count = Sim.Prof.counter "mux.s_values"
let index_walk_count = Sim.Prof.counter "mux.index_walk"
let unregister_walk_count = Sim.Prof.counter "mux.unregister_walk"

(* Backup id -> handle table: monomorphic equality and no C hash call.
   It is never iterated, so bucket order is free. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x land max_int
end)

let same_comps (a : int array) (b : int array) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go k = k = n || (a.(k) = b.(k) && go (k + 1)) in
  go 0

(* Component arrays by content: registrations with equal primaries share
   one index entry. *)
module Ctbl = Hashtbl.Make (struct
  type t = int array

  let equal = same_comps

  let hash (a : int array) =
    let h = ref (Array.length a) in
    for k = 0 to Array.length a - 1 do
      h := (!h * 31) + a.(k)
    done;
    !h land max_int
end)

(* Per-link table: each backup on the link occupies a slot holding its
   handle in the backup store with the handle's primary index entry, its
   |Π| and its Σbw(Π) on this link, the only per-link state the §3.2 rule
   leaves.  [hs.(s) = -1] marks a free slot; freed slots are recycled LIFO
   so the live region stays dense under churn. *)
type link_table = {
  mutable n : int; (* slot watermark: slots in [0, n) exist *)
  mutable hs : int array; (* [pack handle entry]; -1 = free *)
  mutable pin : int array; (* |Π| *)
  mutable pi_bws : float array; (* Σ bw over Π *)
  mutable free : int array;
  mutable free_len : int;
  mutable live : int; (* registered backups *)
}

(* The backup store: one record per registered backup, whatever the
   number of links it is on, in parallel arrays indexed by a dense handle
   that [handles] maps each backup id to.  Handles are recycled LIFO when
   a backup leaves its last link.  [bids.(h) = -1] marks a free handle.

   The primary index: one entry per distinct registered component array
   (every encoding lies in [0, ncomp)), refcounted by the backups holding
   it, and per encoding the entries containing it ([post.(c)], first
   [plen.(c)] valid, unordered).  [version] changes whenever an entry id
   takes a new array; values come from the process-wide {!versions}, so a
   version names one index state of one engine. *)
type t = {
  tables : link_table array;
  (* Per link, flat and unboxed: the O(1) admission ceiling reads only
     these two arrays.  A mutable float field of [link_table] would be a
     boxed float behind the table pointer, and each update would
     allocate. *)
  sum_bw : float array; (* Σ bw over registered backups (exact) *)
  requirement : float array; (* cached spare requirement *)
  lambda : float;
  mutable sink : (Sim.Event.t -> unit) option;
  pows : float array; (* (1-λ)^c for small c *)
  handles : int Itbl.t; (* backup id -> handle *)
  mutable hnext : int; (* handles in [0, hnext) have been issued *)
  mutable hfree : int array;
  mutable hfree_len : int;
  mutable bids : int array; (* -1 = free *)
  mutable conns : int array;
  mutable serials : int array;
  mutable nus : float array;
  mutable bws : float array;
  mutable comps : int array array;
      (* sorted encoded primary components, as passed to [register] *)
  mutable ncomps : int array; (* length of [comps] *)
  mutable eids : int array; (* primary index entry of [comps] *)
  mutable held : int array; (* links the backup is on *)
  ncomp : int;
  post : int array array;
  plen : int array;
  mutable enext : int; (* entry ids in [0, enext) have been issued *)
  mutable efree : int list; (* released entry ids, most recent first *)
  mutable ecomps : int array array; (* entry -> its component array *)
  mutable erefs : int array; (* entry -> backups holding it; 0 = free *)
  by_comps : int Ctbl.t;
  mutable version : int;
  (* The floor of the slot walks: no backup of a component count in
     [seen] reaches S ≥ [nu_min] with one of a count in [seen] while
     they share fewer than [k_min] components. *)
  mutable nu_min : float; (* least ν registered or probed *)
  mutable seen : bool array; (* component count -> registered or probed *)
  mutable k_min : int;
}

let versions = Atomic.make 0

let create topo ~lambda =
  if lambda <= 0.0 || lambda >= 1.0 then
    invalid_arg "Mux.create: lambda must be in (0, 1)";
  (* Node v encodes as 2v, link l as 2l + 1. *)
  let ncomp =
    2 * max (Net.Topology.num_nodes topo) (Net.Topology.num_links topo)
  in
  {
    tables =
      Array.init (Net.Topology.num_links topo) (fun _ ->
          {
            n = 0;
            hs = [||];
            pin = [||];
            pi_bws = [||];
            free = [||];
            free_len = 0;
            live = 0;
          });
    sum_bw = Array.make (Net.Topology.num_links topo) 0.0;
    requirement = Array.make (Net.Topology.num_links topo) 0.0;
    lambda;
    sink = None;
    (* Covers every exponent in practice: it is bounded by the component
       count of two paths, at most 2·(2·nodes+1). *)
    pows =
      Array.init
        (max 64 ((4 * Net.Topology.num_nodes topo) + 8))
        (fun c -> (1.0 -. lambda) ** float_of_int c);
    handles = Itbl.create 64;
    hnext = 0;
    hfree = [||];
    hfree_len = 0;
    bids = [||];
    conns = [||];
    serials = [||];
    nus = [||];
    bws = [||];
    comps = [||];
    ncomps = [||];
    eids = [||];
    held = [||];
    ncomp;
    post = Array.make ncomp [||];
    plen = Array.make ncomp 0;
    enext = 0;
    efree = [];
    ecomps = [||];
    erefs = [||];
    by_comps = Ctbl.create 64;
    version = Atomic.fetch_and_add versions 1;
    nu_min = infinity;
    seen = [||];
    k_min = max_int;
  }

let set_event_sink t s = t.sink <- s

let emit t ~link ~backup ~op ~pi ~psi =
  match t.sink with
  | None -> ()
  | Some f -> f (Sim.Event.Mux { link; backup; op; pi; psi })

let check_link t link =
  if link < 0 || link >= Array.length t.tables then
    invalid_arg (Printf.sprintf "Mux: unknown link %d" link)

let table t link =
  check_link t link;
  t.tables.(link)

(* ---------------- overlap counts ---------------- *)

(* Per-domain count scratch.  After a count for candidate [cand] at index
   version [valid_at], entry [e] shares [acc.(e) - base] components with
   [cand] when that is [>= 0], and none otherwise: each count raises
   [base] past every value an earlier count can have left, so entries it
   does not reach read as zero without clearing the array. *)
type counts = {
  mutable acc : int array;
  mutable base : int;
  mutable cand : int array;
  mutable valid_at : int;
}

let new_counts () =
  Domain.DLS.new_key (fun () ->
      { acc = [||]; base = 1; cand = [||]; valid_at = -1 })

(* Admission and registration count into [counts_key]; removals count the
   victim's primary into [victim_key], so a teardown between a probe and
   its registration leaves the probe's counts in place. *)
let counts_key = new_counts ()
let victim_key = new_counts ()

(* Walk the postings of [comps]' encodings once, adding one to
   every entry per shared component, and add the entries walked to
   [walk].  A count leaves values of at most [base + |cand|], which sets
   the next [base]. *)
let recount t ws comps walk =
  let need = t.enext in
  if Array.length ws.acc < need then
    ws.acc <- Array.make (max need (2 * Array.length ws.acc)) 0;
  let base = ws.base + Array.length ws.cand + 1 in
  ws.base <- base;
  ws.cand <- comps;
  ws.valid_at <- t.version;
  let acc = ws.acc and walked = ref 0 in
  for k = 0 to Array.length comps - 1 do
    let c = Array.unsafe_get comps k in
    let ids = Array.unsafe_get t.post c and n = Array.unsafe_get t.plen c in
    walked := !walked + n;
    for i = 0 to n - 1 do
      let e = Array.unsafe_get ids i in
      let v = Array.unsafe_get acc e in
      Array.unsafe_set acc e (if v >= base then v + 1 else base + 1)
    done
  done;
  Sim.Prof.incr ~by:!walked walk

(* This domain's counts in [key] for [comps] against the current index,
   recounted only when they were taken for other components or an older
   version: the registration that follows a probe of the same primary
   reuses the probe's counts, and each removal of one backup from the
   links of its path reuses the first removal's. *)
let counts_in key walk t comps =
  let ws = Domain.DLS.get key in
  if ws.valid_at <> t.version || not (same_comps ws.cand comps) then
    recount t ws comps walk;
  ws

let counts_for t comps = counts_in counts_key index_walk_count t comps

(* Every array the engine counts or indexes passed this check on entry
   ({!register}, {!probe}): [recount] reads the postings unchecked. *)
let check_encodings t ~fn comps =
  for k = 0 to Array.length comps - 1 do
    let c = comps.(k) in
    if c < 0 || c >= t.ncomp then
      invalid_arg
        (Printf.sprintf "Mux.%s: encoding %d outside the index [0, %d)" fn c
           t.ncomp)
  done

(* [a] copied into a fresh array of [n] cells, the new ones [default]. *)
let grow_to n default a =
  let na = Array.make n default in
  Array.blit a 0 na 0 (Array.length a);
  na

let grow_ints a need = grow_to (max need (2 * Array.length a)) 0 a

(* Intersection size of two sorted, duplicate-free arrays: a two-pointer
   merge. *)
let merge_count (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i j acc =
    if i >= la || j >= lb then acc
    else if a.(i) = b.(j) then go (i + 1) (j + 1) (acc + 1)
    else if a.(i) < b.(j) then go (i + 1) j acc
    else go i (j + 1) acc
  in
  go 0 0 0

(* A new entry moves the index to a fresh version.  This domain's counts,
   if they were current, stay current: the new entry's overlap with their
   candidate is one merge. *)
let add_entry t comps =
  (* The most recently released id first, so ids stay dense under churn. *)
  let e =
    match t.efree with
    | e :: rest ->
      t.efree <- rest;
      e
    | [] ->
      t.enext <- t.enext + 1;
      t.enext - 1
  in
  if e >= Array.length t.erefs then begin
    t.erefs <- grow_ints t.erefs (e + 1);
    t.ecomps <- grow_to (Array.length t.erefs) [||] t.ecomps
  end;
  t.ecomps.(e) <- comps;
  Ctbl.replace t.by_comps comps e;
  for k = 0 to Array.length comps - 1 do
    let c = comps.(k) in
    let n = t.plen.(c) in
    if n = Array.length t.post.(c) then t.post.(c) <- grow_ints t.post.(c) 4;
    t.post.(c).(n) <- e;
    t.plen.(c) <- n + 1
  done;
  let before = t.version in
  t.version <- Atomic.fetch_and_add versions 1;
  let ws = Domain.DLS.get counts_key in
  if ws.valid_at = before then begin
    if e >= Array.length ws.acc then ws.acc <- grow_ints ws.acc (e + 1);
    ws.acc.(e) <- ws.base + merge_count ws.cand comps;
    ws.valid_at <- t.version
  end;
  e

(* The entry for [comps] with one more holder. *)
let acquire_entry t comps =
  let e =
    match Ctbl.find_opt t.by_comps comps with
    | Some e -> e
    | None -> add_entry t comps
  in
  t.erefs.(e) <- t.erefs.(e) + 1;
  e

let release_entry t e =
  if t.erefs.(e) <= 0 then
    invalid_arg (Printf.sprintf "Mux: entry %d released twice" e);
  let r = t.erefs.(e) - 1 in
  t.erefs.(e) <- r;
  if r = 0 then begin
    let comps = t.ecomps.(e) in
    for k = 0 to Array.length comps - 1 do
      let c = comps.(k) in
      let ids = t.post.(c) and n = t.plen.(c) - 1 in
      let rec find i = if ids.(i) = e then i else find (i + 1) in
      ids.(find 0) <- ids.(n);
      t.plen.(c) <- n
    done;
    Ctbl.remove t.by_comps comps;
    t.ecomps.(e) <- [||];
    t.efree <- e :: t.efree
  end

(* (1-λ)^c from the table [create] fills (λ is fixed at creation).
   Computed with the same [Float.pow] expression as
   {!Reliability.Combinatorial.survival}, so tabulated and direct S-values
   are bit-identical.  This, [s_of] and [s_value] are inlined so
   the scan loops keep their floats unboxed: no allocation per peer. *)
let[@inline] pow t c =
  if c < Array.length t.pows then t.pows.(c)
  else (1.0 -. t.lambda) ** float_of_int c

(* S of a backup of [c_i] components and one of [c_j] sharing [sc] of
   them, in the same expression shape as [Combinatorial.s_activation]. *)
let[@inline] s_of t c_i c_j sc =
  1.0 -. (pow t c_i +. pow t c_j -. pow t ((c_i + c_j) - sc))

(* S(candidate, peer).  [acc]/[base] hold the counts of the candidate's
   [c_i] components; [e] is the peer's index entry and [c_j] its
   component count. *)
let[@inline] s_value t c_i acc base e c_j =
  let v = Array.unsafe_get acc e - base in
  s_of t c_i c_j (if v >= 0 then v else 0)

(* ---------------- the shared-count floor ---------------- *)

(* The least shared count below [cap] at which a backup of [c_i]
   components and one of [c_j] reach S ≥ [nu], by the expression the
   walks evaluate, or [cap] when there is none.  A count never exceeds
   min(c_i, c_j), so min(c_i, c_j) + 1 stands for "no count does". *)
let least_passing t c_i c_j nu cap =
  let top = min cap (min c_i c_j + 1) in
  let sc = ref 0 in
  while !sc < top && not (s_of t c_i c_j !sc >= nu) do
    incr sc
  done;
  !sc

(* Lower [k_min] to the least passing count at [nu] of [a] paired with
   each count seen.  This, [least_passing] and [observe] allocate nothing
   but [seen]'s growth, so establishment allocates as it did without the
   floor. *)
let pair_with_seen t a nu =
  for b = 0 to Array.length t.seen - 1 do
    if t.seen.(b) then t.k_min <- least_passing t a b nu t.k_min
  done

(* Note a backup of ν [nu] and [c] components, registered or probed, and
   keep [k_min] at the least passing count, at [nu_min], of every pair of
   counts seen.  No pair reaches ν_min below its own least passing count,
   so a slot sharing fewer than [k_min] components with the walk's backup
   is in Π in neither direction, whatever the shape of S in the count.
   Only a smaller ν or a new count lowers the floor, and each pair is
   tried only below the current one. *)
let observe t ~nu c =
  if nu < t.nu_min then begin
    t.nu_min <- nu;
    for a = 0 to Array.length t.seen - 1 do
      if t.seen.(a) then pair_with_seen t a nu
    done
  end;
  if c >= Array.length t.seen then
    t.seen <- grow_to (max (c + 1) (2 * Array.length t.seen)) false t.seen;
  if not t.seen.(c) then begin
    t.seen.(c) <- true;
    pair_with_seen t c t.nu_min
  end

(* The walks' gate for counts taken at [base]: a slot whose entry's count
   is below the result shares fewer than [k_min] components with the
   walk's backup.  With [k_min = 0] every slot passes. *)
let[@inline] floor_at t base = if t.k_min = 0 then min_int else base + t.k_min

(* Two backups of the same connection protect the same primary: they are
   never multiplexed together (both activate when the primary dies).
   b belongs to Π(a) iff ν_b ≤ ν_a and (same conn or S ≥ ν_a).  Each walk
   first reads the slot's shared count and tests it against the floor;
   a slot below it is skipped unless it belongs to the walk's connection
   (same-connection backups need not share components), so the store is
   read only for slots that could be in Π in either direction.
   [register] and [admission_scan] test both directions from one S,
   computed up front exactly when one of the tests reads it: for a peer
   of another connection whose ν is ordered against the candidate's (any
   non-NaN ν).  No slot stores its Π: [unregister] applies the same rule
   to the victim and each remaining slot.  S is symmetric bit for bit,
   since the count is an intersection size and [pow c_i +. pow c_j]
   commutes in IEEE arithmetic, so removal decides exactly what
   registration did, whichever of the two came first. *)

(* A live slot holds [pack h e]: the backup's handle [h] in the low
   [hbits] bits and its primary index entry [e] above them, so the gate
   reads the slot's count with no store access.  There are never more
   entries than records, and [grow_store] keeps handles below 2^hbits. *)
let hbits = 31
let hmask = (1 lsl hbits) - 1
let[@inline] pack h e = (e lsl hbits) lor h
let[@inline] handle_of x = x land hmask
let[@inline] entry_of x = x lsr hbits

(* [a] with [x] pushed at [len], grown when full: a LIFO free list. *)
let push_free a len x =
  let a = if len = Array.length a then grow_ints a (max 8 (len + 1)) else a in
  a.(len) <- x;
  a

let grow_table tab =
  let n = max 8 (2 * Array.length tab.hs) in
  tab.hs <- grow_to n (-1) tab.hs;
  tab.pin <- grow_to n 0 tab.pin;
  tab.pi_bws <- grow_to n 0.0 tab.pi_bws

let alloc_slot tab =
  if tab.free_len > 0 then begin
    tab.free_len <- tab.free_len - 1;
    tab.free.(tab.free_len)
  end
  else begin
    if tab.n = Array.length tab.hs then grow_table tab;
    let s = tab.n in
    tab.n <- tab.n + 1;
    s
  end

let free_slot tab s =
  tab.hs.(s) <- -1;
  tab.free <- push_free tab.free tab.free_len s;
  tab.free_len <- tab.free_len + 1

(* The slot holding handle [h] on this table, or -1. *)
let slot_of tab h =
  let rec go s =
    if s >= tab.n then -1
    else
      let x = tab.hs.(s) in
      if x >= 0 && handle_of x = h then s else go (s + 1)
  in
  go 0

(* The slot of backup [backup] on [link], or -1. *)
let slot_on t ~link ~backup =
  let tab = table t link in
  match Itbl.find_opt t.handles backup with
  | Some h -> slot_of tab h
  | None -> -1

let grow_store t =
  let n = max 64 (2 * Array.length t.bids) in
  if n > hmask then failwith "Mux: backup store past 2^31 records";
  t.bids <- grow_to n (-1) t.bids;
  t.conns <- grow_to n 0 t.conns;
  t.serials <- grow_to n 0 t.serials;
  t.nus <- grow_to n 0.0 t.nus;
  t.bws <- grow_to n 0.0 t.bws;
  t.comps <- grow_to n [||] t.comps;
  t.ncomps <- grow_to n 0 t.ncomps;
  t.eids <- grow_to n (-1) t.eids;
  t.held <- grow_to n 0 t.held

(* A store record for [info], on no link yet and with no index entry. *)
let new_record t info =
  let h =
    if t.hfree_len > 0 then begin
      t.hfree_len <- t.hfree_len - 1;
      t.hfree.(t.hfree_len)
    end
    else begin
      if t.hnext = Array.length t.bids then grow_store t;
      t.hnext <- t.hnext + 1;
      t.hnext - 1
    end
  in
  t.bids.(h) <- info.backup;
  t.conns.(h) <- info.conn;
  t.serials.(h) <- info.serial;
  t.nus.(h) <- info.nu;
  t.bws.(h) <- info.bw;
  t.comps.(h) <- info.primary_components;
  t.ncomps.(h) <- Array.length info.primary_components;
  t.held.(h) <- 0;
  Itbl.add t.handles info.backup h;
  observe t ~nu:info.nu (Array.length info.primary_components);
  h

(* A freed record lets go of its primary's array: under churn most
   handles are free at some point, and keeping the arrays would hold
   memory for nothing. *)
let free_record t h =
  Itbl.remove t.handles t.bids.(h);
  t.bids.(h) <- -1;
  t.comps.(h) <- [||];
  t.eids.(h) <- -1;
  t.hfree <- push_free t.hfree t.hfree_len h;
  t.hfree_len <- t.hfree_len + 1

let same_record t h info =
  t.conns.(h) = info.conn
  && t.serials.(h) = info.serial
  && Float.equal t.nus.(h) info.nu
  && Float.equal t.bws.(h) info.bw
  && same_comps t.comps.(h) info.primary_components

(* Set [link]'s requirement, whose table is [tab], to its largest live
   contribution bw + Σbw(Π): [Float.max 0.0] of it, or [0.0] on an empty
   link.  It stores rather than returns the float, which would box it. *)
let rescan_requirement t ~link tab =
  let req = ref neg_infinity in
  for s = 0 to tab.n - 1 do
    let x = tab.hs.(s) in
    if x >= 0 then begin
      let c = t.bws.(handle_of x) +. tab.pi_bws.(s) in
      if c > !req then req := c
    end
  done;
  t.requirement.(link) <- Float.max 0.0 !req

(* Registration only adds to Σbw(Π), and removal only subtracts from it,
   since bandwidths are finite and non-negative.  So [register] raises the
   requirement from the slots whose Σbw(Π) grew and from the new slot, and
   [unregister] keeps it unless the victim or a slot that shrank held it;
   max is exact, so both equal a rescan.  The registrant's counts serve
   every link of its path: joining the index adds at most one entry,
   which keeps them current.  Only the first link of a backup checks its
   record and takes its index entry; the others check that the record is
   the stored one. *)
let register t ~link info =
  Sim.Prof.incr register_count;
  let tab = table t link in
  let comps = info.primary_components in
  let h, fresh =
    match Itbl.find_opt t.handles info.backup with
    | Some h ->
      if slot_of tab h >= 0 then
        invalid_arg
          (Printf.sprintf "Mux.register: backup %d already on link %d"
             info.backup link);
      if not (same_record t h info) then
        invalid_arg
          (Printf.sprintf
             "Mux.register: backup %d is registered with another record"
             info.backup);
      (h, false)
    | None ->
      if not (Float.is_finite info.bw && info.bw >= 0.0) then
        invalid_arg
          (Printf.sprintf "Mux.register: backup %d has bandwidth %g"
             info.backup info.bw);
      check_encodings t ~fn:"register" comps;
      (new_record t info, true)
  in
  let ws = counts_for t comps in
  let acc = ws.acc and base = ws.base in
  let thr = floor_at t base in
  let slot = alloc_slot tab in
  tab.hs.(slot) <- h;
  tab.pin.(slot) <- 0;
  tab.pi_bws.(slot) <- 0.0;
  let hs = tab.hs and pin = tab.pin and pi_bws = tab.pi_bws in
  let nus = t.nus and conns = t.conns and bws = t.bws in
  let ncomps = t.ncomps in
  let c_i = Array.length comps in
  let s_values = ref 0 in
  let req = ref t.requirement.(link) in
  for s = 0 to tab.n - 1 do
    let x = hs.(s) in
    if
      s <> slot && x >= 0
      && (Array.unsafe_get acc (entry_of x) >= thr
         || conns.(handle_of x) = info.conn)
    then begin
      let p = handle_of x in
      let nu_s = nus.(p) in
      let below = nu_s <= info.nu and above = info.nu <= nu_s in
      let same = info.conn = conns.(p) in
      let sv =
        if same || not (below || above) then 0.0
        else begin
          incr s_values;
          s_value t c_i acc base (entry_of x) ncomps.(p)
        end
      in
      if below && (same || sv >= info.nu) then begin
        pin.(slot) <- pin.(slot) + 1;
        pi_bws.(slot) <- pi_bws.(slot) +. bws.(p)
      end;
      if above && (same || sv >= nu_s) then begin
        pin.(s) <- pin.(s) + 1;
        pi_bws.(s) <- pi_bws.(s) +. info.bw;
        let c = bws.(p) +. pi_bws.(s) in
        if c > !req then req := c
      end
    end
  done;
  Sim.Prof.incr ~by:!s_values s_values_count;
  if fresh then t.eids.(h) <- acquire_entry t comps;
  hs.(slot) <- pack h t.eids.(h);
  t.held.(h) <- t.held.(h) + 1;
  tab.live <- tab.live + 1;
  t.sum_bw.(link) <- t.sum_bw.(link) +. info.bw;
  t.requirement.(link) <-
    Float.max 0.0 (Float.max !req (info.bw +. pi_bws.(slot)));
  emit t ~link ~backup:info.backup ~op:Sim.Event.Register ~pi:pin.(slot)
    ~psi:(tab.live - pin.(slot) - 1)

let unregister t ~link ~backup =
  let tab = table t link in
  match Itbl.find_opt t.handles backup with
  | None -> ()
  | Some h ->
    let victim = slot_of tab h in
    if victim >= 0 then begin
      Sim.Prof.incr unregister_count;
      let vbw = t.bws.(h)
      and vnu = t.nus.(h)
      and vconn = t.conns.(h)
      and comps = t.comps.(h) in
      let pi = tab.pin.(victim) in
      let psi = tab.live - pi - 1 in
      let old_req = t.requirement.(link) in
      let rescan = ref (vbw +. tab.pi_bws.(victim) = old_req) in
      tab.live <- tab.live - 1;
      t.sum_bw.(link) <- t.sum_bw.(link) -. vbw;
      free_slot tab victim;
      let held = t.held.(h) - 1 in
      t.held.(h) <- held;
      if held = 0 then begin
        release_entry t t.eids.(h);
        free_record t h
      end;
      let ws = counts_in victim_key unregister_walk_count t comps in
      let acc = ws.acc and base = ws.base in
      let thr = floor_at t base in
      let hs = tab.hs and pin = tab.pin and pi_bws = tab.pi_bws in
      let nus = t.nus and conns = t.conns and bws = t.bws in
      let ncomps = t.ncomps in
      let c_v = Array.length comps in
      for s = 0 to tab.n - 1 do
        let x = hs.(s) in
        if
          x >= 0
          && (Array.unsafe_get acc (entry_of x) >= thr
             || conns.(handle_of x) = vconn)
        then begin
          let p = handle_of x in
          let nu_s = nus.(p) in
          if
            vnu <= nu_s
            && (vconn = conns.(p)
               || s_value t c_v acc base (entry_of x) ncomps.(p) >= nu_s)
          then begin
            if bws.(p) +. pi_bws.(s) = old_req then rescan := true;
            pin.(s) <- pin.(s) - 1;
            pi_bws.(s) <- pi_bws.(s) -. vbw
          end
        end
      done;
      if !rescan then rescan_requirement t ~link tab;
      emit t ~link ~backup ~op:Sim.Event.Unregister ~pi ~psi
    end

let spare_requirement t ~link =
  check_link t link;
  t.requirement.(link)

(* Exact admission scan: what the requirement would become with [info]
   added on [link].  [ws] holds the counts of its components. *)
let admission_scan t ~link info ws =
  let tab = table t link in
  let acc = ws.acc and base = ws.base in
  let thr = floor_at t base in
  let hs = tab.hs and pi_bws = tab.pi_bws in
  let nus = t.nus and conns = t.conns and bws = t.bws in
  let ncomps = t.ncomps in
  let c_i = Array.length info.primary_components in
  let own = ref info.bw in
  let req = ref t.requirement.(link) in
  let s_values = ref 0 in
  for s = 0 to tab.n - 1 do
    let x = hs.(s) in
    if
      x >= 0
      && (Array.unsafe_get acc (entry_of x) >= thr
         || conns.(handle_of x) = info.conn)
    then begin
      let p = handle_of x in
      let nu_s = nus.(p) in
      let below = nu_s <= info.nu and above = info.nu <= nu_s in
      let same = info.conn = conns.(p) in
      let sv =
        if same || not (below || above) then 0.0
        else begin
          incr s_values;
          s_value t c_i acc base (entry_of x) ncomps.(p)
        end
      in
      if below && (same || sv >= info.nu) then own := !own +. bws.(p);
      if above && (same || sv >= nu_s) then begin
        let c = bws.(p) +. pi_bws.(s) +. info.bw in
        if c > !req then req := c
      end
    end
  done;
  Sim.Prof.incr scan_count;
  Sim.Prof.incr ~by:tab.n scan_slots_count;
  Sim.Prof.incr ~by:!s_values s_values_count;
  Float.max !own !req

let on_link t ~link =
  let tab = table t link in
  let acc = ref [] in
  for s = tab.n - 1 downto 0 do
    let x = tab.hs.(s) in
    if x >= 0 then begin
      let h = handle_of x in
      acc :=
        {
          backup = t.bids.(h);
          conn = t.conns.(h);
          serial = t.serials.(h);
          nu = t.nus.(h);
          bw = t.bws.(h);
          primary_components = t.comps.(h);
        }
        :: !acc
    end
  done;
  !acc

let count_on t ~link = (table t link).live

let psi_size t ~link ~backup =
  let s = slot_on t ~link ~backup in
  if s < 0 then
    invalid_arg (Printf.sprintf "Mux: backup %d not on link %d" backup link);
  let tab = t.tables.(link) in
  tab.live - tab.pin.(s) - 1

let max_requirement_victims t ~link =
  let tab = table t link in
  let out = ref [] in
  for s = 0 to tab.n - 1 do
    let x = tab.hs.(s) in
    if x >= 0 then begin
      let h = handle_of x in
      if
        Float.abs (t.bws.(h) +. tab.pi_bws.(s) -. t.requirement.(link)) < 1e-9
      then out := t.bids.(h) :: !out
    end
  done;
  List.sort Int.compare !out

(* ---------------- candidate admission probes ---------------- *)

(* A probe holds a candidate that is on no link, so every question is the
   admission scan; its counts come from the domain's scratch and are
   retaken only when another array or a newer index was counted since.
   The candidate joins the floor's seen counts and ν when it is made. *)
type probe = { pt : t; pinfo : backup_info }

let probe t info =
  check_encodings t ~fn:"probe" info.primary_components;
  Sim.Prof.incr probe_count;
  observe t ~nu:info.nu (Array.length info.primary_components);
  { pt = t; pinfo = info }

let probe_required p ~link =
  admission_scan p.pt ~link p.pinfo
    (counts_for p.pt p.pinfo.primary_components)

(* Conservative O(1) ceiling on {!probe_required}: the candidate's own term
   is at most bw + Σ bw(registered), and every existing contribution grows
   by at most bw.  Used by admission fast-accept — when even the ceiling
   fits the link, the exact scan is skipped (the verdict is the same
   because the exact requirement is no larger). *)
let probe_upper_bound p ~link =
  let t = p.pt in
  check_link t link;
  p.pinfo.bw +. Float.max t.sum_bw.(link) t.requirement.(link)
