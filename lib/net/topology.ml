type link = { id : int; src : int; dst : int; capacity : float }

type csr = { off : int array; link : int array; peer : int array }

(* Both directions of the CSR adjacency and the link count they were
   built at.  They sit in one immutable record behind one mutable field,
   so a single store publishes both to other domains. *)
type adjacency = { at_links : int; out_csr : csr; in_csr : csr }

type t = {
  num_nodes : int;
  mutable links : link array;
  mutable num_links : int;
  out : int list array; (* reversed insertion order; normalised on read *)
  in_ : int list array;
  mutable adj : adjacency; (* stale once [at_links <> num_links] *)
}

let no_csr = { off = [||]; link = [||]; peer = [||] }

let create ~num_nodes =
  if num_nodes <= 0 then invalid_arg "Topology.create: need at least one node";
  {
    num_nodes;
    links = [||];
    num_links = 0;
    out = Array.make num_nodes [];
    in_ = Array.make num_nodes [];
    adj = { at_links = -1; out_csr = no_csr; in_csr = no_csr };
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

(* One direction of the CSR adjacency: [key] names the node a link is
   listed under, [peer_of] its other end.  Filling in ascending link id
   keeps each node's run in insertion order, the order of {!out_links}
   and {!in_links}. *)
let build_csr t ~key ~peer_of =
  let n = t.num_nodes and m = t.num_links in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let v = key t.links.(i) in
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let next = Array.sub off 0 n in
  let link = Array.make m 0 and peer = Array.make m 0 in
  for i = 0 to m - 1 do
    let l = t.links.(i) in
    let v = key l in
    let k = next.(v) in
    link.(k) <- i;
    peer.(k) <- peer_of l;
    next.(v) <- k + 1
  done;
  { off; link; peer }

let adjacency t =
  let a = t.adj in
  if a.at_links = t.num_links then a
  else begin
    let a =
      {
        at_links = t.num_links;
        out_csr = build_csr t ~key:(fun l -> l.src) ~peer_of:(fun l -> l.dst);
        in_csr = build_csr t ~key:(fun l -> l.dst) ~peer_of:(fun l -> l.src);
      }
    in
    t.adj <- a;
    a
  end

let out_csr t = (adjacency t).out_csr
let in_csr t = (adjacency t).in_csr

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
