type entry = { time : float; tag : string; detail : string }

type t = {
  capacity : int;
  mutable buf : entry option array; (* [||] until the first [record] *)
  mutable next : int; (* next write slot *)
  mutable total : int;
  index : (string, int Queue.t) Hashtbl.t;
      (* tag -> live sequence numbers, oldest first; seq [mod] capacity is
         the ring slot, so eviction pops exactly the queue head *)
  mutable events_on : bool;
  mutable events : (float * Event.t) array; (* typed events, grows on demand *)
  mutable nevents : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Trace.create: capacity must be positive (got %d)"
         capacity);
  {
    capacity;
    buf = [||];
    next = 0;
    total = 0;
    index = Hashtbl.create 32;
    events_on = false;
    events = [||];
    nevents = 0;
  }

let record t ~time ~tag detail =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity None;
  (* Overwriting a full ring evicts the globally oldest entry, which is
     also the oldest of its own tag — drop it from the index head. *)
  (match t.buf.(t.next) with
  | Some old -> (
    match Hashtbl.find_opt t.index old.tag with
    | Some q -> ignore (Queue.pop q)
    | None -> ())
  | None -> ());
  t.buf.(t.next) <- Some { time; tag; detail };
  (let q =
     match Hashtbl.find_opt t.index tag with
     | Some q -> q
     | None ->
       let q = Queue.create () in
       Hashtbl.replace t.index tag q;
       q
   in
   Queue.push t.total q);
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let recordf t ~time ~tag fmt =
  Format.kasprintf (fun s -> record t ~time ~tag s) fmt

let entries t =
  let stored = min t.total t.capacity in
  let start = (t.next - stored + t.capacity) mod t.capacity in
  let rec collect i acc =
    if i = stored then List.rev acc
    else
      match t.buf.((start + i) mod t.capacity) with
      | None -> collect (i + 1) acc
      | Some e -> collect (i + 1) (e :: acc)
  in
  collect 0 []

let count t = t.total

let find_all t ~tag =
  match Hashtbl.find_opt t.index tag with
  | None -> []
  | Some q ->
    List.rev
      (Queue.fold
         (fun acc seq ->
           match t.buf.(seq mod t.capacity) with
           | Some e -> e :: acc
           | None -> acc)
         [] q)

(* ---------- typed events ---------- *)

let set_events t on = t.events_on <- on
let events_enabled t = t.events_on

let record_event t ~time ev =
  if t.events_on then begin
    let cap = Array.length t.events in
    if t.nevents = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let nbuf = Array.make ncap (0.0, ev) in
      Array.blit t.events 0 nbuf 0 t.nevents;
      t.events <- nbuf
    end;
    t.events.(t.nevents) <- (time, ev);
    t.nevents <- t.nevents + 1
  end

let events t = Array.to_list (Array.sub t.events 0 t.nevents)

let event_count t = t.nevents

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  t.total <- 0;
  Hashtbl.reset t.index;
  t.events <- [||];
  t.nevents <- 0

let pp_entry ppf e = Format.fprintf ppf "[%10.6f] %-18s %s" e.time e.tag e.detail

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)
