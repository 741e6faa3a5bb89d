type t = { src : int; dst : int; links : int array }

let make topo ~src ~dst ~links =
  let rec check at = function
    | [] ->
      if at <> dst then
        invalid_arg
          (Printf.sprintf "Path.make: chain ends at %d, expected %d" at dst)
    | id :: rest ->
      let l = Topology.link topo id in
      if l.Topology.src <> at then
        invalid_arg
          (Printf.sprintf "Path.make: link %d starts at %d, expected %d" id
             l.Topology.src at);
      check l.Topology.dst rest
  in
  check src links;
  if src = dst && links <> [] then
    invalid_arg "Path.make: non-empty cycle back to source";
  { src; dst; links = Array.of_list links }

let of_links topo = function
  | [] -> invalid_arg "Path.of_links: empty link list"
  | first :: _ as ids ->
    let src = (Topology.link topo first).Topology.src in
    let last = List.nth ids (List.length ids - 1) in
    let dst = (Topology.link topo last).Topology.dst in
    make topo ~src ~dst ~links:ids

let hops t = Array.length t.links

let nodes topo t =
  t.src
  :: List.map (fun id -> (Topology.link topo id).Topology.dst)
       (Array.to_list t.links)

(* The node each link but the last enters. *)
let intermediate_nodes topo t =
  List.init
    (max 0 (hops t - 1))
    (fun i -> (Topology.link topo t.links.(i)).Topology.dst)

let links t = Array.to_list t.links

let components topo t =
  let s =
    List.fold_left
      (fun acc v -> Component.Set.add (Component.Node v) acc)
      Component.Set.empty (nodes topo t)
  in
  Array.fold_left (fun acc id -> Component.Set.add (Component.Link id) acc) s t.links

let interior_components topo t =
  let s =
    List.fold_left
      (fun acc v -> Component.Set.add (Component.Node v) acc)
      Component.Set.empty
      (intermediate_nodes topo t)
  in
  Array.fold_left (fun acc id -> Component.Set.add (Component.Link id) acc) s t.links

let mask_interior topo t mask =
  let h = hops t in
  for i = 0 to h - 1 do
    Component.Mask.add mask (Component.Link t.links.(i));
    if i < h - 1 then
      Component.Mask.add mask
        (Component.Node (Topology.link topo t.links.(i)).Topology.dst)
  done

let uses_link t id = Array.exists (fun l -> l = id) t.links

let uses_node topo t v =
  t.src = v || Array.exists (fun l -> (Topology.link topo l).Topology.dst = v) t.links

let uses_component topo t = function
  | Component.Link l -> uses_link t l
  | Component.Node v -> uses_node topo t v

let disjoint topo a b =
  Component.inter_card (interior_components topo a) (interior_components topo b) = 0

let shared_components topo a b =
  Component.inter_card (components topo a) (components topo b)

let pp ppf t =
  Format.fprintf ppf "%d-[%s]->%d" t.src
    (String.concat ","
       (List.map string_of_int (Array.to_list t.links)))
    t.dst
