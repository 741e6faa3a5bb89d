type t = { label : string; components : Net.Component.t list }

let check_node topo v =
  if v < 0 || v >= Net.Topology.num_nodes topo then
    invalid_arg (Printf.sprintf "Scenario: node %d out of range" v)

let check_link topo l =
  ignore (Net.Topology.link topo l)

let single_link topo l =
  check_link topo l;
  { label = Printf.sprintf "link-%d" l; components = [ Net.Component.Link l ] }

let single_node topo v =
  check_node topo v;
  { label = Printf.sprintf "node-%d" v; components = [ Net.Component.Node v ] }

let double_node topo a b =
  check_node topo a;
  check_node topo b;
  if a = b then invalid_arg "Scenario.double_node: identical nodes";
  {
    label = Printf.sprintf "nodes-%d+%d" a b;
    components = [ Net.Component.Node a; Net.Component.Node b ];
  }

let multi topo components =
  List.iter
    (function
      | Net.Component.Node v -> check_node topo v
      | Net.Component.Link l -> check_link topo l)
    components;
  {
    label =
      String.concat "+" (List.map Net.Component.to_string components);
    components;
  }

let effective_components topo t =
  let base = t.components in
  let incident =
    List.concat_map
      (function
        | Net.Component.Link _ -> []
        | Net.Component.Node v ->
          List.map
            (fun l -> Net.Component.Link l)
            (Net.Topology.out_links topo v @ Net.Topology.in_links topo v))
      base
  in
  List.sort_uniq Net.Component.compare (base @ incident)

let all_single_links topo =
  List.map (fun l -> single_link topo l.Net.Topology.id) (Net.Topology.links topo)

let all_single_nodes topo =
  List.init (Net.Topology.num_nodes topo) (fun v -> single_node topo v)

let all_double_nodes topo =
  let n = Net.Topology.num_nodes topo in
  let out = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      out := double_node topo a b :: !out
    done
  done;
  List.rev !out

let sampled_double_nodes rng topo ~count =
  let n = Net.Topology.num_nodes topo in
  if count < 0 then invalid_arg "Scenario.sampled_double_nodes: count < 0";
  if n < 2 then invalid_arg "Scenario.sampled_double_nodes: need two nodes";
  let seen = Hashtbl.create count in
  let rec draw acc remaining guard =
    if remaining = 0 || guard = 0 then List.rev acc
    else begin
      let a = Sim.Prng.int rng n in
      let b = Sim.Prng.int rng n in
      let key = (min a b, max a b) in
      if a = b || Hashtbl.mem seen key then draw acc remaining (guard - 1)
      else begin
        Hashtbl.add seen key ();
        draw (double_node topo (fst key) (snd key) :: acc) (remaining - 1)
          (guard - 1)
      end
    end
  in
  draw [] count (100 * count)

let random_links rng topo ~count =
  let m = Net.Topology.num_links topo in
  if count > m then invalid_arg "Scenario.random_links: count exceeds links";
  let ids = Sim.Prng.sample_without_replacement rng count m in
  multi topo (List.map (fun l -> Net.Component.Link l) ids)
