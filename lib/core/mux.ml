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
   arrays.  Kept as the fallback for component encodings outside the bitset
   range and as the oracle the bitset path is tested (and benchmarked)
   against. *)
let shared_count a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i j acc =
    if i >= la || j >= lb then acc
    else if a.(i) = b.(j) then go (i + 1) (j + 1) (acc + 1)
    else if a.(i) < b.(j) then go (i + 1) j acc
    else go i (j + 1) acc
  in
  go 0 0 0

(* ---------------- fixed-width bitsets over encoded components ----------- *)

let bits_per_word = 63 (* OCaml native ints: stay within the positive range *)
let max_bitset_bits = 65536 (* ~1k words: caps memory for hostile encodings *)

let bitset_of_components a =
  let n = Array.length a in
  if n = 0 then Some [||]
  else begin
    let lo = ref a.(0) and hi = ref a.(0) in
    Array.iter
      (fun c ->
        if c < !lo then lo := c;
        if c > !hi then hi := c)
      a;
    if !lo < 0 || !hi >= max_bitset_bits then None
    else begin
      let words = (!hi / bits_per_word) + 1 in
      let b = Array.make words 0 in
      Array.iter
        (fun c ->
          b.(c / bits_per_word) <-
            b.(c / bits_per_word) lor (1 lsl (c mod bits_per_word)))
        a;
      Some b
    end
  end

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let shared_count_bitset a b =
  let n = min (Array.length a) (Array.length b) in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + popcount (a.(i) land b.(i))
  done;
  !acc

module Iset = Set.Make (Int)

(* Lazy-deletion max-heap item: an item is live iff the backup is still
   registered in the slot and its generation matches (its contribution has
   not changed since the push). *)
type heap_item = { hc : float; hbid : int; hgen : int }

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
  mutable gens : int array; (* bumped when the contribution changes *)
  mutable comps : int array array; (* sorted encoded primary components *)
  mutable bits : int array option array; (* None -> merge-scan fallback *)
  mutable pis : Ids.Ivec.t array; (* Π as an ascending-sorted bid vector *)
  index : (int, int) Hashtbl.t; (* backup id -> slot *)
  mutable free : int array;
  mutable free_len : int;
  mutable live : int; (* registered backups *)
  mutable sum_bw : float; (* Σ bw over registered backups (exact) *)
  mutable requirement : float; (* cached spare requirement *)
  heap : heap_item Sim.Heap.t; (* contributions, max on top *)
  mutable gen_counter : int;
      (* generation source: never reused, so a heap item left over from a
         previous life of a re-registered backup id can never match the
         reborn entry's generation *)
}

type s_cached = { ca : int array; cb : int array; s : float }

type t = {
  tables : link_table array;
  lambda : float;
  mutable sink : (Sim.Event.t -> unit) option;
  mutable pows : float array; (* (1-λ)^c memo; NaN = not yet computed *)
  scache : (int * int, s_cached) Hashtbl.t;
      (* symmetric S(B_i, B_j) by backup-id pair, for registered pairs *)
  reg_count : (int, int) Hashtbl.t; (* backup id -> #links registered on *)
  mutable retired : Iset.t; (* fully-unregistered ids pending cache sweep *)
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
            gens = [||];
            comps = [||];
            bits = [||];
            pis = [||];
            index = Hashtbl.create 16;
            free = [||];
            free_len = 0;
            live = 0;
            sum_bw = 0.0;
            requirement = 0.0;
            heap = Sim.Heap.create ~cmp:(fun x y -> Float.compare y.hc x.hc);
            gen_counter = 0;
          });
    lambda;
    sink = None;
    (* Pre-sized so the memo never grows in practice: the exponent is
       bounded by the component count of two paths, at most
       2·(2·nodes+1). *)
    pows =
      Array.make
        (max 64 ((4 * Net.Topology.num_nodes topo) + 8))
        Float.nan;
    scache = Hashtbl.create 1024;
    reg_count = Hashtbl.create 256;
    retired = Iset.empty;
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

(* (1-λ)^c, memoized per [t] (λ is fixed at creation).  Computed with the
   same [Float.pow] expression as {!Reliability.Combinatorial.survival}, so
   cached and uncached S-values are bit-identical. *)
let pow t c =
  if c > 1_000_000 then (1.0 -. t.lambda) ** float_of_int c
  else begin
    if c >= Array.length t.pows then begin
      let np =
        Array.make (max (c + 1) (2 * Array.length t.pows)) Float.nan
      in
      Array.blit t.pows 0 np 0 (Array.length t.pows);
      t.pows <- np
    end;
    let v = t.pows.(c) in
    if Float.is_nan v then begin
      let v = (1.0 -. t.lambda) ** float_of_int c in
      t.pows.(c) <- v;
      v
    end
    else v
  end

(* Same expression shape as [Combinatorial.s_activation]. *)
let s_of_counts t ~c_i ~c_j ~sc =
  1.0 -. (pow t c_i +. pow t c_j -. pow t ((c_i + c_j) - sc))

let overlap a_comps a_bits b_comps b_bits =
  match (a_bits, b_bits) with
  | Some x, Some y -> shared_count_bitset x y
  | _ -> shared_count a_comps b_comps

(* S(B_i, B_j) from the two primaries' component sets (symmetric). *)
let s_value_raw t a_comps a_bits b_comps b_bits =
  let c_i = Array.length a_comps and c_j = Array.length b_comps in
  let sc = overlap a_comps a_bits b_comps b_bits in
  s_of_counts t ~c_i ~c_j ~sc

(* Cached S for a registered (or being-registered) pair.  The stored
   component arrays are compared physically: a backup id recycled with a
   different primary can never see a stale value. *)
let s_between_slots t tab ~a_bid ~a_comps ~a_bits ~b_slot =
  let b_bid = tab.bids.(b_slot) in
  let b_comps = tab.comps.(b_slot) in
  let lo_comps, hi_comps =
    if a_bid <= b_bid then (a_comps, b_comps) else (b_comps, a_comps)
  in
  let key = (min a_bid b_bid, max a_bid b_bid) in
  match Hashtbl.find_opt t.scache key with
  | Some c when c.ca == lo_comps && c.cb == hi_comps -> c.s
  | _ ->
    let s = s_value_raw t a_comps a_bits b_comps tab.bits.(b_slot) in
    if Hashtbl.length t.scache > 2_000_000 then Hashtbl.reset t.scache;
    Hashtbl.replace t.scache key { ca = lo_comps; cb = hi_comps; s };
    s

(* Two backups of the same connection protect the same primary: they are
   never multiplexed together (both activate when the primary dies).
   b belongs to Π(a) iff ν_b ≤ ν_a and (same conn or S ≥ ν_a). *)

let contribution tab s = tab.bws.(s) +. tab.pi_bws.(s)

(* Drop stale heap tops, refresh the cached requirement from the live
   maximum, and compact the heap when lazy deletions pile up. *)
let settle tab =
  let rec top () =
    match Sim.Heap.peek tab.heap with
    | None -> tab.requirement <- 0.0
    | Some it -> (
      match Hashtbl.find_opt tab.index it.hbid with
      | Some s when tab.gens.(s) = it.hgen ->
        tab.requirement <- Float.max 0.0 it.hc
      | _ ->
        ignore (Sim.Heap.pop tab.heap);
        top ())
  in
  top ();
  if Sim.Heap.length tab.heap > (2 * tab.live) + 64 then begin
    Sim.Heap.clear tab.heap;
    for s = 0 to tab.n - 1 do
      if tab.bids.(s) >= 0 then
        Sim.Heap.push tab.heap
          { hc = contribution tab s; hbid = tab.bids.(s); hgen = tab.gens.(s) }
    done
  end

let next_gen tab =
  tab.gen_counter <- tab.gen_counter + 1;
  tab.gen_counter

let push_contribution tab s =
  Sim.Heap.push tab.heap
    { hc = contribution tab s; hbid = tab.bids.(s); hgen = tab.gens.(s) }

let note_registered t bid =
  Hashtbl.replace t.reg_count bid
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.reg_count bid));
  t.retired <- Iset.remove bid t.retired;
  t.stamp <- t.stamp + 1

(* On the last unregistration of a backup id, queue its S-cache entries for
   removal; sweeps are batched to stay O(cache) only once per 128 retired
   ids. *)
let note_unregistered t bid =
  t.stamp <- t.stamp + 1;
  match Hashtbl.find_opt t.reg_count bid with
  | None -> ()
  | Some n when n > 1 -> Hashtbl.replace t.reg_count bid (n - 1)
  | Some _ ->
    Hashtbl.remove t.reg_count bid;
    t.retired <- Iset.add bid t.retired;
    if Iset.cardinal t.retired >= 128 then begin
      (* One batched S-cache sweep per 128 retired ids; the counter
         exposes the sweep cadence (kernel batches) under churn. *)
      Sim.Prof.count "mux.scache.sweep";
      let doomed = ref [] in
      Hashtbl.iter
        (fun ((a, b) as key) _ ->
          if Iset.mem a t.retired || Iset.mem b t.retired then
            doomed := key :: !doomed)
        t.scache;
      List.iter (Hashtbl.remove t.scache) !doomed;
      t.retired <- Iset.empty
    end

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
  tab.gens <- gi 0 tab.gens;
  tab.comps <- gi [||] tab.comps;
  tab.bits <- gi None tab.bits;
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
  tab.bits.(s) <- None;
  Ids.Ivec.clear tab.pis.(s);
  if tab.free_len = Array.length tab.free then begin
    let nf = Array.make (max 8 (2 * tab.free_len)) 0 in
    Array.blit tab.free 0 nf 0 tab.free_len;
    tab.free <- nf
  end;
  tab.free.(tab.free_len) <- s;
  tab.free_len <- tab.free_len + 1

let register t ~link info =
  Sim.Prof.count "mux.register";
  let tab = table t link in
  if Hashtbl.mem tab.index info.backup then
    invalid_arg
      (Printf.sprintf "Mux.register: backup %d already on link %d" info.backup
         link);
  let slot = alloc_slot tab in
  tab.bids.(slot) <- info.backup;
  tab.conns.(slot) <- info.conn;
  tab.serials.(slot) <- info.serial;
  tab.nus.(slot) <- info.nu;
  tab.bws.(slot) <- info.bw;
  tab.pi_bws.(slot) <- 0.0;
  tab.gens.(slot) <- next_gen tab;
  tab.comps.(slot) <- info.primary_components;
  tab.bits.(slot) <- bitset_of_components info.primary_components;
  let fresh_pi = tab.pis.(slot) in
  let a_bits = tab.bits.(slot) in
  for s = 0 to tab.n - 1 do
    if s <> slot && tab.bids.(s) >= 0 then begin
      (* Both Π directions share one S computation; the short-circuits are
         those of the original [conflicts] predicate. *)
      let computed = ref false and sv = ref 0.0 in
      let s_val () =
        if not !computed then begin
          sv :=
            s_between_slots t tab ~a_bid:info.backup
              ~a_comps:info.primary_components ~a_bits ~b_slot:s;
          computed := true
        end;
        !sv
      in
      if
        tab.nus.(s) <= info.nu
        && (info.conn = tab.conns.(s) || s_val () >= info.nu)
      then begin
        Ids.Ivec.insert_sorted fresh_pi tab.bids.(s);
        tab.pi_bws.(slot) <- tab.pi_bws.(slot) +. tab.bws.(s)
      end;
      if
        info.nu <= tab.nus.(s)
        && (tab.conns.(s) = info.conn || s_val () >= tab.nus.(s))
      then begin
        Ids.Ivec.insert_sorted tab.pis.(s) info.backup;
        tab.pi_bws.(s) <- tab.pi_bws.(s) +. info.bw;
        tab.gens.(s) <- next_gen tab;
        push_contribution tab s
      end
    end
  done;
  Hashtbl.add tab.index info.backup slot;
  tab.live <- tab.live + 1;
  tab.sum_bw <- tab.sum_bw +. info.bw;
  push_contribution tab slot;
  settle tab;
  note_registered t info.backup;
  emit t ~link ~backup:info.backup ~op:Sim.Event.Register
    ~pi:(Ids.Ivec.length fresh_pi)
    ~psi:(tab.live - Ids.Ivec.length fresh_pi - 1)

let unregister t ~link ~backup =
  let tab = table t link in
  match Hashtbl.find_opt tab.index backup with
  | None -> ()
  | Some victim ->
    Sim.Prof.count "mux.unregister";
    let vbw = tab.bws.(victim) in
    let pi = Ids.Ivec.length tab.pis.(victim) in
    let psi = tab.live - pi - 1 in
    Hashtbl.remove tab.index backup;
    tab.live <- tab.live - 1;
    tab.sum_bw <- tab.sum_bw -. vbw;
    free_slot tab victim;
    for s = 0 to tab.n - 1 do
      if tab.bids.(s) >= 0 && Ids.Ivec.mem_sorted tab.pis.(s) backup then begin
        Ids.Ivec.remove_sorted tab.pis.(s) backup;
        tab.pi_bws.(s) <- tab.pi_bws.(s) -. vbw;
        tab.gens.(s) <- next_gen tab;
        push_contribution tab s
      end
    done;
    settle tab;
    note_unregistered t backup;
    emit t ~link ~backup ~op:Sim.Event.Unregister ~pi ~psi

let spare_requirement t ~link = (table t link).requirement

(* Conservative O(1) ceiling on {!required_with}: the candidate's own term
   is at most bw + Σ bw(registered), and every existing contribution grows
   by at most bw.  Used by admission fast-accept — when even the ceiling
   fits the link, the exact scan is skipped (the verdict is the same
   because the exact requirement is no larger). *)
let upper_bound t ~link info =
  let tab = table t link in
  if Hashtbl.mem tab.index info.backup then tab.requirement
  else info.bw +. Float.max tab.sum_bw tab.requirement

(* Shared admission scan: what the requirement would become with [info]
   added.  [s_with s] must return S(info, slot s) and is invoked at most
   once per entry. *)
let admission_scan tab info s_with =
  let own = ref info.bw in
  let req = ref tab.requirement in
  for s = 0 to tab.n - 1 do
    if tab.bids.(s) >= 0 then begin
      let computed = ref false and sv = ref 0.0 in
      let s_val () =
        if not !computed then begin
          sv := s_with s;
          computed := true
        end;
        !sv
      in
      if
        tab.nus.(s) <= info.nu
        && (info.conn = tab.conns.(s) || s_val () >= info.nu)
      then own := !own +. tab.bws.(s);
      if
        info.nu <= tab.nus.(s)
        && (tab.conns.(s) = info.conn || s_val () >= tab.nus.(s))
      then begin
        let c = contribution tab s +. info.bw in
        if c > !req then req := c
      end
    end
  done;
  Float.max !own !req

let required_with t ~link info =
  let tab = table t link in
  if Hashtbl.mem tab.index info.backup then tab.requirement
  else begin
    let bits = bitset_of_components info.primary_components in
    admission_scan tab info (fun s ->
        s_value_raw t info.primary_components bits tab.comps.(s) tab.bits.(s))
  end

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
  let bits = bitset_of_components info.primary_components in
  let pi = ref 0 in
  for s = 0 to tab.n - 1 do
    if
      tab.bids.(s) >= 0
      && tab.nus.(s) <= info.nu
      && (info.conn = tab.conns.(s)
         || s_value_raw t info.primary_components bits tab.comps.(s)
              tab.bits.(s)
            >= info.nu)
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
  pbits : int array option;
  mutable pstamp : int; (* memos valid while this matches [pt.stamp] *)
  s_memo : (int, int array * float) Hashtbl.t; (* peer bid -> (comps, S) *)
  req_memo : (int, float) Hashtbl.t; (* link -> required_with *)
  psi_memo : (int, int) Hashtbl.t; (* link -> psi_size_with *)
}

let probe t info =
  Sim.Prof.count "mux.probe";
  {
    pt = t;
    pinfo = info;
    pbits = bitset_of_components info.primary_components;
    pstamp = t.stamp;
    s_memo = Hashtbl.create 64;
    req_memo = Hashtbl.create 16;
    psi_memo = Hashtbl.create 16;
  }

let probe_info p = p.pinfo

let probe_refresh p =
  if p.pstamp <> p.pt.stamp then begin
    Hashtbl.reset p.s_memo;
    Hashtbl.reset p.req_memo;
    Hashtbl.reset p.psi_memo;
    p.pstamp <- p.pt.stamp
  end

(* S(candidate, slot), cached across links while the tables are unchanged;
   the stored component array is checked physically so an id registered
   with different primaries on different links cannot alias.  Reads no
   shared mutable state beyond the slot fields, so concurrent read-only
   probes on separate domains are safe. *)
let probe_s p tab s =
  let bid = tab.bids.(s) in
  let comps = tab.comps.(s) in
  match Hashtbl.find_opt p.s_memo bid with
  | Some (c, sv) when c == comps -> sv
  | _ ->
    let sv =
      s_value_raw p.pt p.pinfo.primary_components p.pbits comps tab.bits.(s)
    in
    Hashtbl.replace p.s_memo bid (comps, sv);
    sv

let probe_required p ~link =
  probe_refresh p;
  match Hashtbl.find_opt p.req_memo link with
  | Some r -> r
  | None ->
    let tab = table p.pt link in
    let r =
      if Hashtbl.mem tab.index p.pinfo.backup then tab.requirement
      else admission_scan tab p.pinfo (probe_s p tab)
    in
    Hashtbl.add p.req_memo link r;
    r

let probe_upper_bound p ~link = upper_bound p.pt ~link p.pinfo

let probe_psi_size p ~link =
  probe_refresh p;
  match Hashtbl.find_opt p.psi_memo link with
  | Some n -> n
  | None ->
    let tab = table p.pt link in
    let info = p.pinfo in
    let pi = ref 0 in
    for s = 0 to tab.n - 1 do
      if
        tab.bids.(s) >= 0
        && tab.nus.(s) <= info.nu
        && (info.conn = tab.conns.(s) || probe_s p tab s >= info.nu)
      then incr pi
    done;
    let n = tab.live - !pi in
    Hashtbl.add p.psi_memo link n;
    n
