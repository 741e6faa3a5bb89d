type constraints = {
  link_ok : int -> bool;
  node_ok : int -> bool;
  max_hops : int option;
}

let unconstrained =
  { link_ok = (fun _ -> true); node_ok = (fun _ -> true); max_hops = None }

(* Combine the caller's admission predicates with avoidance of the interior
   components of the already-routed paths.  The banned set lives in the
   domain-local mask scratch (O(1) membership, no set unions); the mask is
   only valid for the duration of the immediately following search. *)
let narrowed topo cs avoid =
  let banned =
    Net.Component.Mask.scratch
      ~num_nodes:(Net.Topology.num_nodes topo)
      ~num_links:(Net.Topology.num_links topo)
  in
  List.iter (fun p -> Net.Path.mask_interior topo p banned) avoid;
  let link_ok id = cs.link_ok id && not (Net.Component.Mask.mem_link banned id) in
  let node_ok v =
    cs.node_ok v && not (Net.Component.Mask.mem_node banned v)
  in
  (link_ok, node_ok)

let disjoint_avoiding ?(constraints = unconstrained) ?reference topo ~src ~dst
    ~avoid =
  let link_ok, node_ok = narrowed topo constraints avoid in
  Shortest.shortest_path ~link_ok ~node_ok ?max_hops:constraints.max_hops
    ?reference topo ~src ~dst

let sequential_disjoint ?(constraints = unconstrained) topo ~src ~dst ~count =
  if count < 0 then invalid_arg "Disjoint.sequential_disjoint: negative count";
  let rec route acc k =
    if k = 0 then List.rev acc
    else
      match disjoint_avoiding ~constraints topo ~src ~dst ~avoid:acc with
      | None -> List.rev acc
      | Some p -> route (p :: acc) (k - 1)
  in
  route [] count

let max_disjoint_bound topo ~src ~dst =
  min
    (List.length (Net.Topology.out_links topo src))
    (List.length (Net.Topology.in_links topo dst))
