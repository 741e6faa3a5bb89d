type klass = Message | Timer | Internal

(* Flat event pool.  Events live in parallel arrays (time / action / seq /
   generation / heap position) indexed by a slot; the priority queue is a
   binary heap of slot ints ordered by (time, seq).  A handle packs
   (generation, slot) into one immediate int, so scheduling and cancelling
   allocate nothing and stale handles (slot since recycled) are detected by
   a generation mismatch.  Every sift keeps [pos] (slot -> heap index) up
   to date, so [cancel] takes its event out of the heap at once; the heap
   therefore holds exactly the pending events.  Slots are recycled through
   a free stack the moment their event fires or is cancelled. *)

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
  mutable perturb : (klass -> delay:float -> float) option;
  (* Event slab (SoA). *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable seqs : int array;
  mutable gens : int array;
  mutable pos : int array; (* slot -> index in [heap] while pending *)
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
  heap_push t s;
  Prof.incr scheduled_count;
  pack ~gen:t.gens.(s) ~slot:s

let schedule_after ?(klass = Internal) t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule ~klass t ~at:(t.clock +. delay) action

(* A slot is pending exactly while its generation matches the handle:
   firing and cancelling both free the slot and bump the generation, so a
   fired, cancelled or recycled handle is a no-op. *)
let cancel t h =
  let s = handle_slot h in
  if s < t.slots_used && t.gens.(s) = handle_gen h then begin
    Prof.incr cancelled_count;
    heap_remove t t.pos.(s);
    free_slot t s
  end

let pending t = t.heap_len

let due_now t =
  t.heap_len > 0 && Array.unsafe_get t.times t.heap.(0) <= t.clock

let step t =
  if t.heap_len = 0 then false
  else begin
    let s = t.heap.(0) in
    heap_remove t 0;
    (* Counters observe the dispatch stream without influencing it: one
       predictable branch when profiling is disabled. *)
    Prof.incr events_count;
    t.clock <- t.times.(s);
    let action = t.actions.(s) in
    (* Free before running: the action may schedule new events into this
       very slot; the generation bump keeps old handles stale. *)
    free_slot t s;
    action ();
    true
  end

let run ?until t =
  Prof.span "engine.run" @@ fun () ->
  match until with
  | None -> while step t do () done
  | Some horizon ->
    while t.heap_len > 0 && t.times.(t.heap.(0)) <= horizon do
      ignore (step t)
    done;
    if t.clock < horizon then t.clock <- horizon
