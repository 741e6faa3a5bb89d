type params = {
  period : float;
  suspect_misses : int;
  confirm_misses : int;
}

let default_params = { period = 2e-3; suspect_misses = 2; confirm_misses = 4 }

let validate p =
  if p.period <= 0.0 then invalid_arg "Detector: period must be positive";
  if p.suspect_misses <= 0 then
    invalid_arg "Detector: suspect_misses must be positive";
  if p.confirm_misses < p.suspect_misses then
    invalid_arg "Detector: confirm_misses must be >= suspect_misses"

type state = Healthy | Suspect | Confirmed

type t = {
  params : params;
  mutable last_beat : float;
  mutable state : state;
}

let create params ~now =
  validate params;
  { params; last_beat = now; state = Healthy }

let state t = t.state

let beat t ~now =
  t.last_beat <- Float.max t.last_beat now;
  match t.state with
  | Healthy -> `Fine
  | Suspect ->
    t.state <- Healthy;
    `Fine
  | Confirmed ->
    (* The link was declared dead but a keepalive got through: either a
       repair or a false positive (flapping/gray recovery).  Re-arm so a
       later real failure is detected again. *)
    t.state <- Healthy;
    `Recovered

let misses t ~now =
  int_of_float (Float.max 0.0 (now -. t.last_beat) /. t.params.period)

let check_count = Sim.Prof.counter "detector.check"

let check t ~now =
  Sim.Prof.incr check_count;
  let m = misses t ~now in
  match t.state with
  | Confirmed -> `Fine
  | Healthy when m >= t.params.confirm_misses ->
    t.state <- Confirmed;
    `Confirmed
  | Suspect when m >= t.params.confirm_misses ->
    t.state <- Confirmed;
    `Confirmed
  | Healthy when m >= t.params.suspect_misses ->
    t.state <- Suspect;
    `Suspected
  | Healthy | Suspect -> `Fine
