(* Typed events live in fixed-size chunks that are never copied: entry
   [i] is slot [i land chunk_mask] of chunk [i lsr chunk_bits].  An entry
   is a time and one int word.  An RCC step whose fields fit the layout
   below is that word: seq, bytes, link and op code packed low to high
   ([rcc_word]).  Every other event, and an RCC step outside the layout,
   is kept boxed in its own chunked store and its word is [boxed]; the
   boxed store is read in the same order, so the word needs no index
   into it. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let op_bits = 3
let link_bits = 16
let bytes_bits = 16
let seq_bits = 27 (* 3 + 16 + 16 + 27 = 62 bits: the word stays >= 0 *)
let boxed = 7 (* an op code no RCC op has *)

type t = {
  mutable events_on : bool;
  mutable ev_times : float array array; (* entries' times, by chunk *)
  mutable ev_words : int array array; (* one word per entry, by chunk *)
  mutable ev_boxed : Event.t array array; (* boxed events, by chunk *)
  mutable nevents : int;
  mutable nboxed : int;
}

let create () =
  {
    events_on = false;
    ev_times = [||];
    ev_words = [||];
    ev_boxed = [||];
    nevents = 0;
    nboxed = 0;
  }

let set_events t on = t.events_on <- on

(* Room for chunk [c] in a chunk directory: doubled when full, so only
   the directory — one pointer per chunk — is ever copied. *)
let with_room dir c =
  if c < Array.length dir then dir
  else begin
    let nd = Array.make (max 8 (2 * Array.length dir)) [||] in
    Array.blit dir 0 nd 0 (Array.length dir);
    nd
  end

let push_boxed t ev =
  let c = t.nboxed lsr chunk_bits in
  if t.nboxed land chunk_mask = 0 then begin
    t.ev_boxed <- with_room t.ev_boxed c;
    t.ev_boxed.(c) <- Array.make chunk_size ev
  end;
  t.ev_boxed.(c).(t.nboxed land chunk_mask) <- ev;
  t.nboxed <- t.nboxed + 1

let push t ~time word =
  let c = t.nevents lsr chunk_bits and i = t.nevents land chunk_mask in
  if i = 0 then begin
    t.ev_times <- with_room t.ev_times c;
    t.ev_words <- with_room t.ev_words c;
    t.ev_times.(c) <- Array.make chunk_size 0.0;
    t.ev_words.(c) <- Array.make chunk_size 0
  end;
  t.ev_times.(c).(i) <- time;
  t.ev_words.(c).(i) <- word;
  t.nevents <- t.nevents + 1

let op_code : Event.rcc_op -> int = function
  | Send -> 0
  | Retransmit -> 1
  | Deliver -> 2
  | Ack -> 3
  | Drop -> 4

let rcc_ops = [| Event.Send; Retransmit; Deliver; Ack; Drop |]

let fits bits x = x land ((1 lsl bits) - 1) = x

let packs ~link ~seq ~bytes =
  fits link_bits link && fits bytes_bits bytes && fits seq_bits seq

let rcc_word ~link ~op ~seq ~bytes =
  (((((seq lsl bytes_bits) lor bytes) lsl link_bits) lor link) lsl op_bits)
  lor op_code op

let field word ~shift ~bits = (word lsr shift) land ((1 lsl bits) - 1)

let record_boxed t ~time ev =
  push_boxed t ev;
  push t ~time boxed

let record_rcc t ~time ~link ~op ~seq ~bytes =
  if t.events_on then
    if packs ~link ~seq ~bytes then push t ~time (rcc_word ~link ~op ~seq ~bytes)
    else record_boxed t ~time (Event.Rcc { link; op; seq; bytes })

let record_event t ~time ev =
  match ev with
  | Event.Rcc { link; op; seq; bytes } -> record_rcc t ~time ~link ~op ~seq ~bytes
  | _ -> if t.events_on then record_boxed t ~time ev

let events t =
  let acc = ref [] and b = ref t.nboxed in
  for n = t.nevents - 1 downto 0 do
    let c = n lsr chunk_bits and i = n land chunk_mask in
    let word = t.ev_words.(c).(i) in
    let ev =
      if word = boxed then begin
        decr b;
        t.ev_boxed.(!b lsr chunk_bits).(!b land chunk_mask)
      end
      else
        Event.Rcc
          {
            link = field word ~shift:op_bits ~bits:link_bits;
            op = rcc_ops.(field word ~shift:0 ~bits:op_bits);
            seq =
              field word ~shift:(op_bits + link_bits + bytes_bits)
                ~bits:seq_bits;
            bytes = field word ~shift:(op_bits + link_bits) ~bits:bytes_bits;
          }
    in
    acc := (t.ev_times.(c).(i), ev) :: !acc
  done;
  !acc

let event_count t = t.nevents
