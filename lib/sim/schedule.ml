type profile = {
  msg_delay : float;
  msg_rate : float;
  timer_delay : float;
  timer_rate : float;
}

let disabled = { msg_delay = 0.0; msg_rate = 0.0; timer_delay = 0.0; timer_rate = 0.0 }

let check_delay name d =
  if not (Float.is_finite d) || d < 0.0 then
    invalid_arg (Printf.sprintf "Schedule.make: %s %g not finite >= 0" name d)

let check_rate name r =
  if not (Float.is_finite r) || r < 0.0 || r > 1.0 then
    invalid_arg (Printf.sprintf "Schedule.make: %s %g not in [0,1]" name r)

let make ?(msg_delay = 0.0) ?(msg_rate = 0.0) ?(timer_delay = 0.0)
    ?(timer_rate = 0.0) () =
  check_delay "msg_delay" msg_delay;
  check_rate "msg_rate" msg_rate;
  check_delay "timer_delay" timer_delay;
  check_rate "timer_rate" timer_rate;
  { msg_delay; msg_rate; timer_delay; timer_rate }

let is_disabled p =
  (p.msg_rate = 0.0 || p.msg_delay = 0.0)
  && (p.timer_rate = 0.0 || p.timer_delay = 0.0)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let profile_to_json p =
  Printf.sprintf
    "{\"msg_delay\":%s,\"msg_rate\":%s,\"timer_delay\":%s,\"timer_rate\":%s}"
    (json_float p.msg_delay) (json_float p.msg_rate)
    (json_float p.timer_delay) (json_float p.timer_rate)

type t = { profile : profile; rng : Prng.t; mutable perturbed : int }

let create ~seed profile = { profile; rng = Prng.create seed; perturbed = 0 }

let perturbed t = t.perturbed

(* One axis of the profile.  Consumes PRNG draws only when the axis is
   live (rate > 0 and bound > 0): a disabled axis must not advance the
   stream, or "perturbation off" would not be byte-identical to "no
   schedule attached". *)
let draw t ~rate ~bound =
  if rate <= 0.0 || bound <= 0.0 then 0.0
  else if Prng.float t.rng 1.0 < rate then begin
    let extra = Prng.float t.rng bound in
    if extra > 0.0 then t.perturbed <- t.perturbed + 1;
    extra
  end
  else 0.0

let hook t (klass : Engine.klass) ~delay:_ =
  match klass with
  | Engine.Message -> draw t ~rate:t.profile.msg_rate ~bound:t.profile.msg_delay
  | Engine.Timer ->
    draw t ~rate:t.profile.timer_rate ~bound:t.profile.timer_delay
  | Engine.Internal -> 0.0

let attach t engine = Engine.set_perturb engine (Some (hook t))
