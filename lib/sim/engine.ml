type klass = Message | Timer | Internal

(* Flat event pool.  Events live in parallel arrays (time / action / seq /
   generation / cancelled flag) indexed by a slot; the priority queue is a
   binary heap of slot ints ordered by (time, seq).  A handle packs
   (generation, slot) into one immediate int, so scheduling and cancelling
   allocate nothing and stale handles (slot since recycled) are detected by
   a generation mismatch.  Slots are recycled through a free stack the
   moment their event fires or their cancelled carcass surfaces at the top
   of the heap. *)

type handle = int

let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let pack ~gen ~slot = (gen lsl slot_bits) lor slot
let handle_slot h = h land slot_mask
let handle_gen h = h lsr slot_bits

let noop () = ()

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int; (* scheduled and not cancelled *)
  mutable perturb : (klass -> delay:float -> float) option;
  (* Event slab (SoA). *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable seqs : int array;
  mutable gens : int array;
  mutable cancelled : Bytes.t;
  (* Free slot stack. *)
  mutable free : int array;
  mutable free_len : int;
  mutable slots_used : int; (* watermark: slots in [0, slots_used) exist *)
  (* Binary heap of slots, ordered by (times.(s), seqs.(s)). *)
  mutable heap : int array;
  mutable heap_len : int;
}

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    live = 0;
    perturb = None;
    times = Array.make 64 0.0;
    actions = Array.make 64 noop;
    seqs = Array.make 64 0;
    gens = Array.make 64 0;
    cancelled = Bytes.make 64 '\000';
    free = Array.make 64 0;
    free_len = 0;
    slots_used = 0;
    heap = Array.make 64 0;
    heap_len = 0;
  }

let now t = t.clock

let set_perturb t hook = t.perturb <- hook

(* Perturbation can only *add* delay, so the no-past invariant of
   [schedule] is preserved by construction. *)
let perturbed_at t klass ~at =
  match klass, t.perturb with
  | Internal, _ | _, None -> at
  | (Message | Timer), Some hook ->
    let extra = hook klass ~delay:(at -. t.clock) in
    if extra > 0.0 then at +. extra else at

(* (time, seq) strict ordering between heap slots. *)
let precedes t a b =
  let ta = Array.unsafe_get t.times a and tb = Array.unsafe_get t.times b in
  ta < tb || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

let sift_up t i0 =
  let heap = t.heap in
  let s = heap.(i0) in
  let i = ref i0 in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    precedes t s heap.(p)
  do
    let p = (!i - 1) / 2 in
    heap.(!i) <- heap.(p);
    i := p
  done;
  heap.(!i) <- s

let sift_down t i0 =
  let heap = t.heap and len = t.heap_len in
  let s = heap.(i0) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let c = if l + 1 < len && precedes t heap.(l + 1) heap.(l) then l + 1 else l in
      if precedes t heap.(c) s then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- s

let heap_push t s =
  if t.heap_len = Array.length t.heap then begin
    let nh = Array.make (2 * t.heap_len) 0 in
    Array.blit t.heap 0 nh 0 t.heap_len;
    t.heap <- nh
  end;
  t.heap.(t.heap_len) <- s;
  t.heap_len <- t.heap_len + 1;
  sift_up t (t.heap_len - 1)

(* Pop the root slot; caller has checked [heap_len > 0]. *)
let heap_pop t =
  let s = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  if t.heap_len > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_len);
    sift_down t 0
  end;
  s

let grow_slab t =
  let cap = Array.length t.times in
  let ncap = 2 * cap in
  let nt = Array.make ncap 0.0 in
  Array.blit t.times 0 nt 0 cap;
  t.times <- nt;
  let na = Array.make ncap noop in
  Array.blit t.actions 0 na 0 cap;
  t.actions <- na;
  let ns = Array.make ncap 0 in
  Array.blit t.seqs 0 ns 0 cap;
  t.seqs <- ns;
  let ng = Array.make ncap 0 in
  Array.blit t.gens 0 ng 0 cap;
  t.gens <- ng;
  let nc = Bytes.make ncap '\000' in
  Bytes.blit t.cancelled 0 nc 0 cap;
  t.cancelled <- nc

let alloc_slot t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free.(t.free_len)
  end
  else begin
    if t.slots_used = Array.length t.times then grow_slab t;
    let s = t.slots_used in
    t.slots_used <- t.slots_used + 1;
    s
  end

(* Retire a slot: bump its generation (staling outstanding handles), drop
   the action closure so it can be collected, and push onto the free
   stack. *)
let free_slot t s =
  t.gens.(s) <- t.gens.(s) + 1;
  t.actions.(s) <- noop;
  Bytes.unsafe_set t.cancelled s '\000';
  if t.free_len = Array.length t.free then begin
    let nf = Array.make (2 * t.free_len) 0 in
    Array.blit t.free 0 nf 0 t.free_len;
    t.free <- nf
  end;
  t.free.(t.free_len) <- s;
  t.free_len <- t.free_len + 1

let scheduled_count = Prof.counter "engine.scheduled"
let events_count = Prof.counter "engine.events"
let cancelled_count = Prof.counter "engine.events.cancelled"

let schedule ?(klass = Internal) t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now (%g)" at t.clock);
  let at = perturbed_at t klass ~at in
  let s = alloc_slot t in
  t.times.(s) <- at;
  t.actions.(s) <- action;
  t.seqs.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  heap_push t s;
  Prof.incr scheduled_count;
  pack ~gen:t.gens.(s) ~slot:s

let schedule_after ?(klass = Internal) t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule ~klass t ~at:(t.clock +. delay) action

(* The slot may have been recycled since the handle was issued; the
   generation check makes cancelling a fired event a no-op, as before. *)
let cancel t h =
  let s = handle_slot h in
  if
    s < t.slots_used
    && t.gens.(s) = handle_gen h
    && Bytes.get t.cancelled s = '\000'
  then begin
    Bytes.set t.cancelled s '\001';
    t.live <- t.live - 1
  end

let pending t = t.live

let rec step t =
  if t.heap_len = 0 then false
  else begin
    let s = heap_pop t in
    if Bytes.get t.cancelled s = '\001' then begin
      (* Counters observe the dispatch stream without influencing it:
         one predictable branch each when profiling is disabled. *)
      Prof.incr cancelled_count;
      free_slot t s;
      step t
    end
    else begin
      Prof.incr events_count;
      t.clock <- t.times.(s);
      t.live <- t.live - 1;
      let action = t.actions.(s) in
      (* Free before running: the action may schedule new events into this
         very slot; the generation bump keeps old handles stale. *)
      free_slot t s;
      action ();
      true
    end
  end

let run ?until t =
  Prof.span "engine.run" @@ fun () ->
  match until with
  | None -> while step t do () done
  | Some horizon ->
    let continue = ref true in
    while !continue do
      if t.heap_len = 0 then continue := false
      else begin
        let s = t.heap.(0) in
        if Bytes.get t.cancelled s = '\001' then begin
          ignore (heap_pop t);
          free_slot t s
        end
        else if t.times.(s) > horizon then continue := false
        else ignore (step t)
      end
    done;
    if t.clock < horizon then t.clock <- horizon
