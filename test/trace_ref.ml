(* Boxed reference for the typed-event store of [Sim.Trace]: every event
   kept as the record it is, newest first in a list.  The trace under
   test packs RCC steps into ints and keeps its entries in chunks; fed
   the same calls, both must read back the same events. *)

type t = {
  mutable on : bool;
  mutable evs : (float * Sim.Event.t) list; (* newest first *)
  mutable n : int;
}

let create () = { on = false; evs = []; n = 0 }
let set_events t on = t.on <- on

let record_event t ~time ev =
  if t.on then begin
    t.evs <- (time, ev) :: t.evs;
    t.n <- t.n + 1
  end

let record_rcc t ~time ~link ~op ~seq ~bytes =
  record_event t ~time (Sim.Event.Rcc { link; op; seq; bytes })

let events t = List.rev t.evs
let event_count t = t.n
