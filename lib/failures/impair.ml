type flap = { up : float; down : float; phase : float }

type profile = {
  loss : float;
  dup : float;
  jitter : float;
  gray : bool;
  flap : flap option;
}

let perfect = { loss = 0.0; dup = 0.0; jitter = 0.0; gray = false; flap = None }

let check_rate name r =
  if r < 0.0 || r > 1.0 then
    invalid_arg (Printf.sprintf "Impair: %s must be in [0, 1]" name)

let make ?(loss = 0.0) ?(dup = 0.0) ?(jitter = 0.0) ?gray ?flap () =
  check_rate "loss" loss;
  check_rate "dup" dup;
  if jitter < 0.0 then invalid_arg "Impair: jitter must be non-negative";
  (match flap with
  | Some f ->
    if f.up <= 0.0 || f.down <= 0.0 then
      invalid_arg "Impair: flap up/down durations must be positive"
  | None -> ());
  { loss; dup; jitter; gray = (gray = Some true); flap }

let flapping ~up ~down ?(phase = 0.0) () = { up; down; phase }

type t = {
  rng : Sim.Prng.t;
  default : profile;
  per_link : (int, profile) Hashtbl.t;
  mutable drops : int;
}

let create ~seed ?(default = perfect) () =
  {
    rng = Sim.Prng.create seed;
    default;
    per_link = Hashtbl.create 16;
    drops = 0;
  }

let set_link t ~link profile = Hashtbl.replace t.per_link link profile

let profile_of t ~link =
  Option.value ~default:t.default (Hashtbl.find_opt t.per_link link)

let drops t = t.drops

let flap_down flap ~now =
  match flap with
  | None -> false
  | Some { up; down; phase } ->
    let cycle = up +. down in
    let pos = Float.rem (Float.rem (now +. phase) cycle +. cycle) cycle in
    pos >= up

(* Verdict for one message (or ack) offered to the link: the list of extra
   delays, one per copy that survives the link.  [] means the copy is
   silently lost.  Zero-rate profiles consume no randomness, so attaching
   an all-[perfect] model leaves a seeded run bit-for-bit unchanged. *)
let decide t ~link ~dir:_ ~bytes:_ ~now =
  let p = profile_of t ~link in
  if p.gray || flap_down p.flap ~now then begin
    t.drops <- t.drops + 1;
    []
  end
  else if p.loss > 0.0 && Sim.Prng.float t.rng 1.0 < p.loss then begin
    t.drops <- t.drops + 1;
    []
  end
  else begin
    let delay () = if p.jitter > 0.0 then Sim.Prng.float t.rng p.jitter else 0.0 in
    let first = delay () in
    if p.dup > 0.0 && Sim.Prng.float t.rng 1.0 < p.dup then [ first; delay () ]
    else [ first ]
  end
