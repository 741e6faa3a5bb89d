(* Capacities are copied out of the link records into a flat array, so
   an admission test reads three unboxed floats at one index.  [cap] is
   never written, so copies share it. *)
type t = {
  cap : float array;
  primary : float array;
  spare : float array;
}

(* Floating-point slack so that repeated 1-Mbps reservations against a
   200-Mbps budget never fail on rounding. *)
let eps = 1e-9

let create topo =
  let n = Net.Topology.num_links topo in
  {
    cap =
      Array.init n (fun id -> (Net.Topology.link topo id).Net.Topology.capacity);
    primary = Array.make n 0.0;
    spare = Array.make n 0.0;
  }

let copy t = { t with primary = Array.copy t.primary; spare = Array.copy t.spare }

let capacity t id = t.cap.(id)
let primary t id = t.primary.(id)
let spare t id = t.spare.(id)
let free t id = t.cap.(id) -. t.primary.(id) -. t.spare.(id)

let can_reserve_primary t id bw =
  bw >= 0.0 && t.primary.(id) +. bw +. t.spare.(id) <= t.cap.(id) +. eps

let reserve_primary t id bw =
  if not (can_reserve_primary t id bw) then
    invalid_arg
      (Printf.sprintf
         "Resource.reserve_primary: link %d over capacity (%.3f + %.3f + %.3f > %.3f)"
         id t.primary.(id) bw t.spare.(id) (capacity t id));
  t.primary.(id) <- t.primary.(id) +. bw

let release_primary t id bw =
  if bw < 0.0 || t.primary.(id) -. bw < -.eps then
    invalid_arg "Resource.release_primary: releasing more than reserved";
  t.primary.(id) <- Float.max 0.0 (t.primary.(id) -. bw)

let can_set_spare t id bw = bw >= 0.0 && t.primary.(id) +. bw <= t.cap.(id) +. eps

let set_spare t id bw =
  if not (can_set_spare t id bw) then
    invalid_arg
      (Printf.sprintf "Resource.set_spare: link %d over capacity (%.3f + %.3f > %.3f)"
         id t.primary.(id) bw (capacity t id));
  t.spare.(id) <- bw

let reserve_primary_path t path bw =
  let ids = Net.Path.links path in
  if List.for_all (fun id -> can_reserve_primary t id bw) ids then begin
    List.iter (fun id -> reserve_primary t id bw) ids;
    true
  end
  else false

let release_primary_path t path bw =
  List.iter (fun id -> release_primary t id bw) (Net.Path.links path)

let sum a =
  let s = ref 0.0 in
  Array.iter (fun x -> s := !s +. x) a;
  !s

let total_capacity t = sum t.cap
let total_primary t = sum t.primary
let total_spare t = sum t.spare

let network_load t =
  let cap = total_capacity t in
  if cap <= 0.0 then 0.0 else 100.0 *. total_primary t /. cap

let spare_fraction t =
  let cap = total_capacity t in
  if cap <= 0.0 then 0.0 else 100.0 *. total_spare t /. cap
