type fault = {
  component : Net.Component.t;
  fail_at : float;
  repair_at : float option;
}

type t = {
  label : string;
  faults : fault list;
  impair : Impair.profile;
  gray_links : int list;
  perturb : Sim.Schedule.profile;
}

(* Generation window: failures land in [t0, t0 + 0.5 * horizon] so the
   tail of the horizon always observes the last recovery; repairs land a
   beat later.  [mutate] re-uses the default window. *)
let t0 = 0.01

let default_horizon = 0.25

let loss_ladder = [| 0.0; 0.05; 0.1; 0.2; 0.3 |]

let jitter_ladder = [| 0.0; 2e-4; 5e-4 |]

let msg_delay_ladder = [| 5e-4; 2e-3; 5e-3 |]

let timer_delay_ladder = [| 1e-3; 5e-3; 2e-2 |]

let rate_ladder = [| 0.1; 0.25; 0.5 |]

let compare_fault a b =
  match Float.compare a.fail_at b.fail_at with
  | 0 -> Net.Component.compare a.component b.component
  | c -> c

let label_of faults impair gray_links perturb =
  Printf.sprintf "%d-fault loss %.0f%%%s%s" (List.length faults)
    (100.0 *. impair.Impair.loss)
    (if gray_links <> [] then " gray" else "")
    (if Sim.Schedule.is_disabled perturb then "" else " perturbed")

let finish faults impair gray_links perturb =
  let faults = List.sort compare_fault faults in
  let gray_links = List.sort_uniq Int.compare gray_links in
  { label = label_of faults impair gray_links perturb;
    faults; impair; gray_links; perturb }

let gen_impair rng =
  let loss = Sim.Prng.pick rng loss_ladder in
  Impair.make ~loss ~dup:(loss /. 2.0) ~jitter:(Sim.Prng.pick rng jitter_ladder)
    ()

let gen_perturb rng =
  if Sim.Prng.bool rng then Sim.Schedule.disabled
  else begin
    let md = Sim.Prng.pick rng msg_delay_ladder in
    let mr = Sim.Prng.pick rng rate_ladder in
    let td = Sim.Prng.pick rng timer_delay_ladder in
    let tr = Sim.Prng.pick rng rate_ladder in
    match Sim.Prng.int rng 3 with
    | 0 -> Sim.Schedule.make ~msg_delay:md ~msg_rate:mr ()
    | 1 -> Sim.Schedule.make ~timer_delay:td ~timer_rate:tr ()
    | _ ->
      Sim.Schedule.make ~msg_delay:md ~msg_rate:mr ~timer_delay:td
        ~timer_rate:tr ()
  end

let gen_times rng ~horizon =
  let fail_at = t0 +. Sim.Prng.float rng (0.5 *. horizon) in
  let repair_at =
    if Sim.Prng.float rng 1.0 < 0.35 then
      Some (fail_at +. 0.02 +. Sim.Prng.float rng (0.4 *. horizon))
    else None
  in
  (fail_at, repair_at)

let generate rng topo ?(max_faults = 3) ?(horizon = default_horizon) () =
  if max_faults < 1 then invalid_arg "Plan.generate: max_faults < 1";
  let m = Net.Topology.num_links topo in
  let n = Net.Topology.num_nodes topo in
  let k = min (1 + Sim.Prng.int rng max_faults) m in
  let links = Sim.Prng.sample_without_replacement rng k m in
  let nodes = Sim.Prng.sample_at_most rng k n in
  let nnodes = List.length nodes in
  let faults =
    List.mapi
      (fun i l ->
        let component =
          if i < nnodes && Sim.Prng.float rng 1.0 < 0.3 then
            Net.Component.Node (List.nth nodes i)
          else Net.Component.Link l
        in
        let fail_at, repair_at = gen_times rng ~horizon in
        { component; fail_at; repair_at })
      links
  in
  let impair = gen_impair rng in
  let gray_links =
    if Sim.Prng.float rng 1.0 < 0.25 then [ Sim.Prng.int rng m ] else []
  in
  let perturb = gen_perturb rng in
  finish faults impair gray_links perturb

let fresh_component rng topo existing =
  let m = Net.Topology.num_links topo in
  let n = Net.Topology.num_nodes topo in
  let taken c = List.exists (fun f -> Net.Component.equal f.component c) existing in
  let rec try_ attempts =
    if attempts = 0 then None
    else
      let c =
        if Sim.Prng.float rng 1.0 < 0.3 then
          Net.Component.Node (Sim.Prng.int rng n)
        else Net.Component.Link (Sim.Prng.int rng m)
      in
      if taken c then try_ (attempts - 1) else Some c
  in
  try_ 8

let shift_fault rng faults =
  let faults = Array.of_list faults in
  let i = Sim.Prng.int rng (Array.length faults) in
  let fail_at, _ = gen_times rng ~horizon:default_horizon in
  let f = faults.(i) in
  (* Keep the repair the same distance after the (moved) failure. *)
  let repair_at = Option.map (fun r -> fail_at +. (r -. f.fail_at)) f.repair_at in
  faults.(i) <- { f with fail_at; repair_at };
  Array.to_list faults

let mutate rng topo p =
  let nf = List.length p.faults in
  match Sim.Prng.int rng 7 with
  | 0 when nf < 4 -> (
    (* add a fault *)
    match fresh_component rng topo p.faults with
    | None -> finish (shift_fault rng p.faults) p.impair p.gray_links p.perturb
    | Some component ->
      let fail_at, repair_at = gen_times rng ~horizon:default_horizon in
      finish
        ({ component; fail_at; repair_at } :: p.faults)
        p.impair p.gray_links p.perturb)
  | 1 when nf > 1 ->
    (* drop a fault *)
    let i = Sim.Prng.int rng nf in
    let faults = List.filteri (fun j _ -> j <> i) p.faults in
    finish faults p.impair p.gray_links p.perturb
  | 3 ->
    (* toggle a repair *)
    let i = Sim.Prng.int rng nf in
    let faults =
      List.mapi
        (fun j f ->
          if j <> i then f
          else
            match f.repair_at with
            | Some _ -> { f with repair_at = None }
            | None ->
              {
                f with
                repair_at =
                  Some
                    (f.fail_at +. 0.02
                    +. Sim.Prng.float rng (0.4 *. default_horizon));
              })
        p.faults
    in
    finish faults p.impair p.gray_links p.perturb
  | 4 -> finish p.faults (gen_impair rng) p.gray_links p.perturb
  | 5 -> finish p.faults p.impair p.gray_links (gen_perturb rng)
  | 6 ->
    let gray_links =
      match p.gray_links with
      | [] -> [ Sim.Prng.int rng (Net.Topology.num_links topo) ]
      | _ -> []
    in
    finish p.faults p.impair gray_links p.perturb
  | _ -> finish (shift_fault rng p.faults) p.impair p.gray_links p.perturb

let of_scenario ~at (sc : Scenario.t) =
  let fault component = { component; fail_at = at; repair_at = None } in
  { label = sc.label; faults = List.map fault sc.components;
    impair = Impair.make (); gray_links = []; perturb = Sim.Schedule.disabled }

let random_chaos rng topo =
  let m = Net.Topology.num_links topo in
  let l = Sim.Prng.int rng m in
  let impair = gen_impair rng in
  let faults =
    [ { component = Net.Component.Link l; fail_at = t0; repair_at = None } ]
  in
  finish faults impair [] Sim.Schedule.disabled

(* ---------- JSON / pretty ---------- *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let component_json = function
  | Net.Component.Node v -> Printf.sprintf "{\"node\":%d}" v
  | Net.Component.Link l -> Printf.sprintf "{\"link\":%d}" l

let fault_json f =
  Printf.sprintf "{\"component\":%s,\"fail_at\":%s,\"repair_at\":%s}"
    (component_json f.component)
    (json_float f.fail_at)
    (match f.repair_at with None -> "null" | Some r -> json_float r)

let to_json p =
  Printf.sprintf
    "{\"label\":%S,\"faults\":[%s],\"impair\":{\"loss\":%s,\"dup\":%s,\"jitter\":%s},\"gray_links\":[%s],\"perturb\":%s}"
    p.label
    (String.concat "," (List.map fault_json p.faults))
    (json_float p.impair.Impair.loss)
    (json_float p.impair.Impair.dup)
    (json_float p.impair.Impair.jitter)
    (String.concat "," (List.map string_of_int p.gray_links))
    (Sim.Schedule.profile_to_json p.perturb)
