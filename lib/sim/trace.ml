type entry = { time : float; tag : string; detail : string }

(* The string ring keeps each entry's detail as a printer, run only when
   the entry is read: a simulation records thousands of steps that nobody
   ever prints.  Parallel arrays, grown by doubling up to [capacity];
   the entry with sequence number [n] lives in slot [n mod capacity]. *)
type t = {
  capacity : int;
  mutable times : float array;
  mutable tags : string array;
  mutable details : (Format.formatter -> unit) array;
  mutable total : int;
  index : (string, int Queue.t) Hashtbl.t;
      (* tag -> live sequence numbers, oldest first; seq [mod] capacity is
         the ring slot, so eviction pops exactly the queue head *)
  mutable events_on : bool;
  mutable ev_times : float array; (* typed events, grow on demand *)
  mutable evs : Event.t array;
  mutable nevents : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Trace.create: capacity must be positive (got %d)"
         capacity);
  {
    capacity;
    times = [||];
    tags = [||];
    details = [||];
    total = 0;
    index = Hashtbl.create 32;
    events_on = false;
    ev_times = [||];
    evs = [||];
    nevents = 0;
  }

let no_detail (_ : Format.formatter) = ()

(* Before the ring first wraps, [total] is also the next free slot, so
   growing keeps every entry where [n mod capacity] expects it. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then min 64 t.capacity else min (2 * cap) t.capacity in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  t.times <- extend t.times 0.0;
  t.tags <- extend t.tags "";
  t.details <- extend t.details no_detail

let record_pp t ~time ~tag detail =
  if t.total = Array.length t.times && t.total < t.capacity then grow t;
  let slot = t.total mod t.capacity in
  (* Overwriting a full ring evicts the globally oldest entry, which is
     also the oldest of its own tag — drop it from the index head. *)
  if t.total >= t.capacity then begin
    match Hashtbl.find_opt t.index t.tags.(slot) with
    | Some q -> ignore (Queue.pop q)
    | None -> ()
  end;
  t.times.(slot) <- time;
  t.tags.(slot) <- tag;
  t.details.(slot) <- detail;
  (let q =
     match Hashtbl.find_opt t.index tag with
     | Some q -> q
     | None ->
       let q = Queue.create () in
       Hashtbl.replace t.index tag q;
       q
   in
   Queue.push t.total q);
  t.total <- t.total + 1

let record t ~time ~tag detail =
  record_pp t ~time ~tag (fun ppf -> Format.pp_print_string ppf detail)

let entry_at t seq =
  let slot = seq mod t.capacity in
  {
    time = t.times.(slot);
    tag = t.tags.(slot);
    detail = Format.asprintf "%t" t.details.(slot);
  }

let entries t =
  let first = max 0 (t.total - t.capacity) in
  List.init (t.total - first) (fun i -> entry_at t (first + i))

let count t = t.total

let find_all t ~tag =
  match Hashtbl.find_opt t.index tag with
  | None -> []
  | Some q -> List.rev (Queue.fold (fun acc seq -> entry_at t seq :: acc) [] q)

(* ---------- typed events ---------- *)

let set_events t on = t.events_on <- on
let events_enabled t = t.events_on

let record_event t ~time ev =
  if t.events_on then begin
    let cap = Array.length t.evs in
    if t.nevents = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let ntimes = Array.make ncap 0.0 and nevs = Array.make ncap ev in
      Array.blit t.ev_times 0 ntimes 0 t.nevents;
      Array.blit t.evs 0 nevs 0 t.nevents;
      t.ev_times <- ntimes;
      t.evs <- nevs
    end;
    t.ev_times.(t.nevents) <- time;
    t.evs.(t.nevents) <- ev;
    t.nevents <- t.nevents + 1
  end

let events t = List.init t.nevents (fun i -> (t.ev_times.(i), t.evs.(i)))

let event_count t = t.nevents

let clear t =
  t.times <- [||];
  t.tags <- [||];
  t.details <- [||];
  t.total <- 0;
  Hashtbl.reset t.index;
  t.ev_times <- [||];
  t.evs <- [||];
  t.nevents <- 0

let pp_entry ppf e = Format.fprintf ppf "[%10.6f] %-18s %s" e.time e.tag e.detail
