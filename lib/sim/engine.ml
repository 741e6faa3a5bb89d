type klass = Message | Timer | Internal

(* Flat event pool.  Events live in parallel arrays (time / action / seq /
   generation / position) indexed by a slot.  A handle packs (generation,
   slot) into one immediate int, so scheduling and cancelling allocate
   nothing and stale handles (slot since recycled) are detected by a
   generation mismatch.  Slots are recycled through a free stack the
   moment their event fires or is cancelled.

   Pending events wait in one of two structures, and dispatch takes the
   least (time, seq) over both:
   - a binary heap of slots ordered by (time, seq), with [pos] (slot ->
     heap index) kept through every sift so [cancel] takes its event out
     at once;
   - a few lanes.  A lane is a FIFO ring of handles of [schedule_after]
     events sharing one delay, none of them perturbed.  The clock never
     decreases and IEEE addition of a fixed delay is monotone, so a lane
     is sorted by (time, seq) as it is pushed.  [pos] holds [-1 - lane]
     for a lane event.  A cancelled lane event stays in its ring as a
     stale handle and is skipped when it reaches the head; every
     non-empty lane's head is live.
   The event model's delays are few and fixed (heartbeat period, RCC
   delivery and ack latency, retransmit and rejoin timeouts), so almost
   every event rides a lane: O(1) to schedule, cancel and dispatch. *)

type handle = int

let slot_bits = 25
let slot_mask = (1 lsl slot_bits) - 1
let pack ~gen ~slot = (gen lsl slot_bits) lor slot
let handle_slot h = h land slot_mask
let handle_gen h = h lsr slot_bits

let noop () = ()

(* Lane table size: the event model uses about six fixed delays at once;
   a delay that finds no lane of its own and no empty lane to re-key goes
   to the heap. *)
let lanes = 8

type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable perturb : (klass -> delay:float -> float) option;
  (* Event slab (SoA). *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable seqs : int array;
  mutable gens : int array;
  mutable pos : int array; (* slot -> heap index, or [-1 - lane] *)
  (* Free slot stack. *)
  mutable free : int array;
  mutable free_len : int;
  mutable slots_used : int; (* watermark: slots in [0, slots_used) exist *)
  (* Binary heap of slots, ordered by (times.(s), seqs.(s)). *)
  mutable heap : int array;
  mutable heap_len : int;
  (* Lanes, one entry per lane in each array. *)
  lane_key : float array; (* the delay; free to re-key while empty *)
  lane_ring : int array array; (* power-of-two ring of handles *)
  lane_head : int array;
  lane_len : int array; (* ring entries, stale ones included *)
  lane_time : float array; (* head's time, [infinity] when empty *)
  lane_seq : int array; (* head's seq, [max_int] when empty *)
  mutable lane_events : int; (* live events over all lanes *)
}

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    perturb = None;
    times = Array.make 64 0.0;
    actions = Array.make 64 noop;
    seqs = Array.make 64 0;
    gens = Array.make 64 0;
    pos = Array.make 64 0;
    free = Array.make 64 0;
    free_len = 0;
    slots_used = 0;
    heap = Array.make 64 0;
    heap_len = 0;
    lane_key = Array.make lanes Float.nan; (* matches no delay *)
    lane_ring = Array.init lanes (fun _ -> Array.make 16 0);
    lane_head = Array.make lanes 0;
    lane_len = Array.make lanes 0;
    lane_time = Array.make lanes infinity;
    lane_seq = Array.make lanes max_int;
    lane_events = 0;
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

(* Write slot [s] at heap index [i], keeping [pos] in step. *)
let place t i s =
  t.heap.(i) <- s;
  t.pos.(s) <- i

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
    place t !i heap.(p);
    i := p
  done;
  place t !i s

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
        place t !i heap.(c);
        i := c
      end
      else continue := false
    end
  done;
  place t !i s

let heap_push t s =
  if t.heap_len = Array.length t.heap then begin
    let nh = Array.make (2 * t.heap_len) 0 in
    Array.blit t.heap 0 nh 0 t.heap_len;
    t.heap <- nh
  end;
  t.heap.(t.heap_len) <- s;
  t.heap_len <- t.heap_len + 1;
  sift_up t (t.heap_len - 1)

(* Take the slot at heap index [i] out of the heap: the last slot fills
   the hole and moves whichever way restores the order. *)
let heap_remove t i =
  t.heap_len <- t.heap_len - 1;
  if i < t.heap_len then begin
    let last = t.heap.(t.heap_len) in
    place t i last;
    if i > 0 && precedes t last t.heap.((i - 1) / 2) then sift_up t i
    else sift_down t i
  end

(* ---------- lanes ---------- *)

let live t h = Array.unsafe_get t.gens (handle_slot h) = handle_gen h

(* Drop stale handles from lane [i]'s head and cache the new head's
   (time, seq), restoring the invariant that a non-empty lane's head is
   live. *)
let settle t i =
  let ring = t.lane_ring.(i) in
  let mask = Array.length ring - 1 in
  let hd = ref t.lane_head.(i) and len = ref t.lane_len.(i) in
  while !len > 0 && not (live t (Array.unsafe_get ring !hd)) do
    hd := (!hd + 1) land mask;
    decr len
  done;
  t.lane_head.(i) <- !hd;
  t.lane_len.(i) <- !len;
  if !len = 0 then begin
    t.lane_time.(i) <- infinity;
    t.lane_seq.(i) <- max_int
  end
  else begin
    let s = handle_slot (Array.unsafe_get ring !hd) in
    t.lane_time.(i) <- t.times.(s);
    t.lane_seq.(i) <- t.seqs.(s)
  end

(* The lane keyed [delay], else an empty lane re-keyed to it, else -1. *)
let lane_for t delay =
  let found = ref (-1) and empty = ref (-1) and i = ref 0 in
  while !found < 0 && !i < lanes do
    if (Array.unsafe_get t.lane_key !i : float) = delay then found := !i
    else if !empty < 0 && Array.unsafe_get t.lane_len !i = 0 then empty := !i;
    incr i
  done;
  if !found < 0 && !empty >= 0 then begin
    t.lane_key.(!empty) <- delay;
    found := !empty
  end;
  !found

let lane_push t i h =
  let ring = t.lane_ring.(i) and len = t.lane_len.(i) in
  let cap = Array.length ring in
  let ring =
    if len < cap then ring
    else begin
      let head = t.lane_head.(i) in
      let nr = Array.make (2 * cap) 0 in
      Array.blit ring head nr 0 (cap - head);
      Array.blit ring 0 nr (cap - head) head;
      t.lane_ring.(i) <- nr;
      t.lane_head.(i) <- 0;
      nr
    end
  in
  ring.((t.lane_head.(i) + len) land (Array.length ring - 1)) <- h;
  t.lane_len.(i) <- len + 1;
  t.lane_events <- t.lane_events + 1;
  if len = 0 then settle t i

(* Index of the lane whose head comes first, or -1 when every lane is
   empty (an empty lane's head is (infinity, max_int), after any live
   one). *)
let first_lane t =
  let best = ref 0 in
  for i = 1 to lanes - 1 do
    let ti = Array.unsafe_get t.lane_time i
    and tb = Array.unsafe_get t.lane_time !best in
    if
      ti < tb
      || (ti = tb && Array.unsafe_get t.lane_seq i < Array.unsafe_get t.lane_seq !best)
    then best := i
  done;
  if Array.unsafe_get t.lane_seq !best = max_int then -1 else !best

(* Where the next event waits: a lane index, [from_heap], or [nothing]. *)
let from_heap = -1
let nothing = -2

let next_source t =
  let b = first_lane t in
  if t.heap_len = 0 then if b < 0 then nothing else b
  else if b < 0 then from_heap
  else begin
    let s = Array.unsafe_get t.heap 0 in
    let ts = Array.unsafe_get t.times s and tb = Array.unsafe_get t.lane_time b in
    if ts < tb || (ts = tb && Array.unsafe_get t.seqs s < Array.unsafe_get t.lane_seq b)
    then from_heap
    else b
  end

(* Whether the event waiting at [src] is due by [limit]; returns a bool,
   not the time, so that no float is boxed per dispatch. *)
let due_by t src limit =
  src <> nothing
  && (if src = from_heap then t.times.(t.heap.(0)) else t.lane_time.(src)) <= limit

(* ---------- slots ---------- *)

let grow_slab t =
  let cap = Array.length t.times in
  let ncap = 2 * cap in
  let grow a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  t.times <- grow t.times 0.0;
  t.actions <- grow t.actions noop;
  t.seqs <- grow t.seqs 0;
  t.gens <- grow t.gens 0;
  t.pos <- grow t.pos 0

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

(* Fill a fresh slot for an event at [at] and queue it in lane [lane], or
   in the heap when [lane < 0]. *)
let enqueue t ~lane ~at action =
  let s = alloc_slot t in
  t.times.(s) <- at;
  t.actions.(s) <- action;
  t.seqs.(s) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  let h = pack ~gen:t.gens.(s) ~slot:s in
  if lane < 0 then heap_push t s
  else begin
    t.pos.(s) <- -1 - lane;
    lane_push t lane h
  end;
  Prof.incr scheduled_count;
  h

(* [not (x >= y)] also rejects NaN, which compares false either way: a
   NaN time would stop [run ~until] at its event and silently never run
   the rest. *)
let schedule ?(klass = Internal) t ~at action =
  if not (at >= t.clock) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: NaN time"
       else Printf.sprintf "Engine.schedule: time %g is before now (%g)" at t.clock);
  enqueue t ~lane:(-1) ~at:(perturbed_at t klass ~at) action

let schedule_after ?(klass = Internal) t ~delay action =
  if not (delay >= 0.0) then
    invalid_arg
      (if Float.is_nan delay then "Engine.schedule_after: NaN delay"
       else "Engine.schedule_after: negative delay");
  let at = t.clock +. delay in
  let at' = perturbed_at t klass ~at in
  enqueue t ~lane:(if at' = at then lane_for t delay else -1) ~at:at' action

(* A slot is pending exactly while its generation matches the handle:
   firing and cancelling both free the slot and bump the generation, so a
   fired, cancelled or recycled handle is a no-op. *)
let cancel t h =
  let s = handle_slot h in
  if s < t.slots_used && live t h then begin
    Prof.incr cancelled_count;
    let p = t.pos.(s) in
    free_slot t s;
    if p >= 0 then heap_remove t p
    else begin
      let lane = -1 - p in
      t.lane_events <- t.lane_events - 1;
      if t.lane_ring.(lane).(t.lane_head.(lane)) = h then settle t lane
    end
  end

let pending t = t.heap_len + t.lane_events

let due_now t = due_by t (next_source t) t.clock

(* Run the next event, which waits at [src]. *)
let dispatch t src =
  let s =
    if src = from_heap then begin
      let s = t.heap.(0) in
      heap_remove t 0;
      s
    end
    else begin
      let ring = t.lane_ring.(src) in
      let s = handle_slot ring.(t.lane_head.(src)) in
      t.lane_head.(src) <- (t.lane_head.(src) + 1) land (Array.length ring - 1);
      t.lane_len.(src) <- t.lane_len.(src) - 1;
      t.lane_events <- t.lane_events - 1;
      settle t src;
      s
    end
  in
  (* Counters observe the dispatch stream without influencing it: one
     predictable branch when profiling is disabled. *)
  Prof.incr events_count;
  t.clock <- t.times.(s);
  let action = t.actions.(s) in
  (* Free before running: the action may schedule new events into this
     very slot; the generation bump keeps old handles stale. *)
  free_slot t s;
  action ()

let step t =
  let src = next_source t in
  if src = nothing then false
  else begin
    dispatch t src;
    true
  end

let run ?until t =
  Prof.span "engine.run" @@ fun () ->
  match until with
  | None -> while step t do () done
  | Some horizon ->
    let src = ref (next_source t) in
    while due_by t !src horizon do
      dispatch t !src;
      src := next_source t
    done;
    if t.clock < horizon then t.clock <- horizon
