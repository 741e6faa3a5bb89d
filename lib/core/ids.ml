(* Dense integer ids for the flat state layout.

   Every hot-path table in the flat layout (mux link tables, netstate
   backup/channel indexes) is an array indexed by a dense id.  This module
   is the interning/allocation layer those slabs share: ids are handed out
   from a watermark (optionally recycling released ids LIFO, so slabs stay
   dense under churn), out-of-range accesses raise descriptive
   [Invalid_argument]s naming the id space and the offending id, and the
   growable vectors/slabs keep the "no per-operation allocation" discipline
   of the flat hot path. *)

type t = {
  kind : string;
  mutable next : int; (* watermark: ids in [0, next) have been issued *)
  mutable free : int array; (* recycled ids, LIFO *)
  mutable free_len : int;
  mutable live : Bytes.t; (* '\001' while issued and not released *)
}

let create ?(expected = 64) ~kind () =
  if expected < 0 then invalid_arg (Printf.sprintf "Ids.create(%s): negative expected size" kind);
  {
    kind;
    next = 0;
    free = [||];
    free_len = 0;
    live = Bytes.make (max 1 expected) '\000';
  }

let watermark t = t.next
let live_count t = t.next - t.free_len

let ensure_live t n =
  let cap = Bytes.length t.live in
  if n > cap then begin
    let ncap = max n (2 * cap) in
    let nb = Bytes.make ncap '\000' in
    Bytes.blit t.live 0 nb 0 cap;
    t.live <- nb
  end

let fresh t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    let id = t.free.(t.free_len) in
    Bytes.unsafe_set t.live id '\001';
    id
  end
  else begin
    let id = t.next in
    t.next <- id + 1;
    ensure_live t t.next;
    Bytes.unsafe_set t.live id '\001';
    id
  end

let check t id =
  if id < 0 || id >= t.next then
    invalid_arg
      (Printf.sprintf "Ids(%s): id %d outside the dense range [0, %d)" t.kind
         id t.next)

let mem t id = id >= 0 && id < t.next && Bytes.get t.live id = '\001'

let release t id =
  check t id;
  if Bytes.get t.live id <> '\001' then
    invalid_arg
      (Printf.sprintf "Ids(%s): id %d released twice (or never issued)" t.kind
         id);
  Bytes.set t.live id '\000';
  if t.free_len = Array.length t.free then begin
    let ncap = max 16 (2 * t.free_len) in
    let nf = Array.make ncap 0 in
    Array.blit t.free 0 nf 0 t.free_len;
    t.free <- nf
  end;
  t.free.(t.free_len) <- id;
  t.free_len <- t.free_len + 1

(* ------------- growable int vector (push / ordered remove) ------------- *)

module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    let cap = Array.length v.data in
    if v.len = cap then begin
      let ndata = Array.make (max 8 (2 * cap)) 0 in
      Array.blit v.data 0 ndata 0 v.len;
      v.data <- ndata
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  (* Remove the first occurrence of [x], preserving the order of the
     remaining elements (the flat mirror of the old cons-list
     [List.filter]). *)
  let remove_first v x =
    let rec find i = if i >= v.len then -1 else if v.data.(i) = x then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then begin
      Array.blit v.data (i + 1) v.data i (v.len - i - 1);
      v.len <- v.len - 1
    end

  let to_list_rev v =
    let rec go i acc = if i >= v.len then acc else go (i + 1) (v.data.(i) :: acc) in
    go 0 []
end

(* ------------- dense-id slab: 'a array auto-grown with a default ------- *)

module Slab = struct
  type 'a t = {
    kind : string;
    default : 'a;
    mutable data : 'a array;
  }

  let create ?(expected = 64) ~kind ~default () =
    { kind; default; data = Array.make (max 1 expected) default }

  let ensure s n =
    let cap = Array.length s.data in
    if n > cap then begin
      let ndata = Array.make (max n (2 * cap)) s.default in
      Array.blit s.data 0 ndata 0 cap;
      s.data <- ndata
    end

  let set s id v =
    if id < 0 then
      invalid_arg (Printf.sprintf "Ids.Slab(%s): negative id %d" s.kind id);
    ensure s (id + 1);
    s.data.(id) <- v

  (* Reads below the watermark return the default rather than raising:
     the slab is a total map from dense ids to values. *)
  let get s id =
    if id < 0 then
      invalid_arg (Printf.sprintf "Ids.Slab(%s): negative id %d" s.kind id);
    if id >= Array.length s.data then s.default else s.data.(id)

  let clear_id s id = if id >= 0 && id < Array.length s.data then s.data.(id) <- s.default
end
