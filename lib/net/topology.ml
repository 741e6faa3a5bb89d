type link = { id : int; src : int; dst : int; capacity : float }

type t = {
  num_nodes : int;
  mutable links : link array;
  mutable num_links : int;
  out : int list array; (* reversed insertion order; normalised on read *)
  in_ : int list array;
  (* Flat adjacency cache for the routing hot path: per-node int arrays in
     insertion order, rebuilt lazily after the topology grows.
     [adj_links] records the link count the cache was built at; -1 means
     stale. *)
  mutable out_arr : int array array;
  mutable in_arr : int array array;
  mutable adj_links : int;
}

let create ~num_nodes =
  if num_nodes <= 0 then invalid_arg "Topology.create: need at least one node";
  {
    num_nodes;
    links = [||];
    num_links = 0;
    out = Array.make num_nodes [];
    in_ = Array.make num_nodes [];
    out_arr = [||];
    in_arr = [||];
    adj_links = -1;
  }

let check_node t v name =
  if v < 0 || v >= t.num_nodes then
    invalid_arg (Printf.sprintf "Topology: %s node %d out of range" name v)

let add_link t ~src ~dst ~capacity =
  check_node t src "source";
  check_node t dst "destination";
  if src = dst then invalid_arg "Topology.add_link: self-loop";
  if capacity <= 0.0 then invalid_arg "Topology.add_link: non-positive capacity";
  let id = t.num_links in
  let l = { id; src; dst; capacity } in
  let cap = Array.length t.links in
  if t.num_links = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nlinks = Array.make ncap l in
    Array.blit t.links 0 nlinks 0 t.num_links;
    t.links <- nlinks
  end;
  t.links.(t.num_links) <- l;
  t.num_links <- t.num_links + 1;
  t.out.(src) <- id :: t.out.(src);
  t.in_.(dst) <- id :: t.in_.(dst);
  t.adj_links <- -1;
  id

let add_duplex t ~a ~b ~capacity =
  let ab = add_link t ~src:a ~dst:b ~capacity in
  let ba = add_link t ~src:b ~dst:a ~capacity in
  (ab, ba)

let num_nodes t = t.num_nodes
let num_links t = t.num_links

let link t id =
  if id < 0 || id >= t.num_links then
    invalid_arg (Printf.sprintf "Topology.link: unknown id %d" id);
  t.links.(id)

let out_links t v =
  check_node t v "query";
  List.rev t.out.(v)

let in_links t v =
  check_node t v "query";
  List.rev t.in_.(v)

(* Flat adjacency, in the same insertion order as {!out_links} /
   {!in_links} but without the per-call [List.rev] allocation.  The
   returned arrays are shared — callers must not mutate them. *)
let refresh_adjacency t =
  t.out_arr <- Array.map (fun l -> Array.of_list (List.rev l)) t.out;
  t.in_arr <- Array.map (fun l -> Array.of_list (List.rev l)) t.in_;
  t.adj_links <- t.num_links

let out_array t v =
  check_node t v "query";
  if t.adj_links <> t.num_links then refresh_adjacency t;
  t.out_arr.(v)

let in_array t v =
  check_node t v "query";
  if t.adj_links <> t.num_links then refresh_adjacency t;
  t.in_arr.(v)

(* Unchecked link read for inner routing loops; [id] must come from an
   adjacency array of this topology. *)
let link_unsafe t id = Array.unsafe_get t.links id

let find_link t ~src ~dst =
  check_node t src "source";
  let rec scan = function
    | [] -> None
    | id :: rest -> if t.links.(id).dst = dst then Some id else scan rest
  in
  (* out lists are reversed; scan the insertion-ordered view so "first
     added" wins. *)
  scan (List.rev t.out.(src))

let links t = List.init t.num_links (fun i -> t.links.(i))

let iter_links t f =
  for i = 0 to t.num_links - 1 do
    f t.links.(i)
  done

let total_capacity t =
  let sum = ref 0.0 in
  iter_links t (fun l -> sum := !sum +. l.capacity);
  !sum

let neighbors t v =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun id ->
      let d = t.links.(id).dst in
      if Hashtbl.mem seen d then None
      else begin
        Hashtbl.add seen d ();
        Some d
      end)
    (out_links t v)

let degree t v =
  check_node t v "query";
  List.length t.out.(v)
