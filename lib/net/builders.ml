let grid_node ~cols ~row ~col = (row * cols) + col
let grid_coord ~cols id = (id / cols, id mod cols)

let duplex topo a b capacity =
  ignore (Topology.add_duplex topo ~a ~b ~capacity)

let mesh ~rows ~cols ~capacity =
  if rows <= 0 || cols <= 0 then invalid_arg "Builders.mesh: empty grid";
  let topo = Topology.create ~num_nodes:(rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let v = grid_node ~cols ~row:r ~col:c in
      if c + 1 < cols then duplex topo v (grid_node ~cols ~row:r ~col:(c + 1)) capacity;
      if r + 1 < rows then duplex topo v (grid_node ~cols ~row:(r + 1) ~col:c) capacity
    done
  done;
  topo

let torus ~rows ~cols ~capacity =
  if rows <= 0 || cols <= 0 then invalid_arg "Builders.torus: empty grid";
  let topo = mesh ~rows ~cols ~capacity in
  (* Wrap-around links; skip when the dimension is too small to add a new
     neighbour pair. *)
  if cols >= 3 then
    for r = 0 to rows - 1 do
      duplex topo (grid_node ~cols ~row:r ~col:(cols - 1)) (grid_node ~cols ~row:r ~col:0)
        capacity
    done;
  if rows >= 3 then
    for c = 0 to cols - 1 do
      duplex topo (grid_node ~cols ~row:(rows - 1) ~col:c) (grid_node ~cols ~row:0 ~col:c)
        capacity
    done;
  topo

let ring ~nodes ~capacity =
  if nodes < 3 then invalid_arg "Builders.ring: need at least 3 nodes";
  let topo = Topology.create ~num_nodes:nodes in
  for v = 0 to nodes - 1 do
    duplex topo v ((v + 1) mod nodes) capacity
  done;
  topo

let line ~nodes ~capacity =
  if nodes < 2 then invalid_arg "Builders.line: need at least 2 nodes";
  let topo = Topology.create ~num_nodes:nodes in
  for v = 0 to nodes - 2 do
    duplex topo v (v + 1) capacity
  done;
  topo

let star ~leaves ~capacity =
  if leaves < 1 then invalid_arg "Builders.star: need at least one leaf";
  let topo = Topology.create ~num_nodes:(leaves + 1) in
  for v = 1 to leaves do
    duplex topo 0 v capacity
  done;
  topo

let complete ~nodes ~capacity =
  if nodes < 2 then invalid_arg "Builders.complete: need at least 2 nodes";
  let topo = Topology.create ~num_nodes:nodes in
  for a = 0 to nodes - 1 do
    for b = a + 1 to nodes - 1 do
      duplex topo a b capacity
    done
  done;
  topo

let hypercube ~dim ~capacity =
  if dim < 1 then invalid_arg "Builders.hypercube: dim must be at least 1";
  let n = 1 lsl dim in
  let topo = Topology.create ~num_nodes:n in
  for v = 0 to n - 1 do
    for bit = 0 to dim - 1 do
      let u = v lxor (1 lsl bit) in
      if u > v then duplex topo v u capacity
    done
  done;
  topo

let random_connected rng ~nodes ~extra_edges ~capacity =
  if nodes < 2 then invalid_arg "Builders.random_connected: need at least 2 nodes";
  let topo = Topology.create ~num_nodes:nodes in
  let connected = Hashtbl.create nodes in
  let edge_present = Hashtbl.create (nodes + extra_edges) in
  let key a b = (min a b * nodes) + max a b in
  (* Random spanning tree: attach each new node to a uniformly chosen
     already-connected node. *)
  let order = Array.init nodes (fun i -> i) in
  Sim.Prng.shuffle rng order;
  Hashtbl.add connected order.(0) ();
  let attached = ref [ order.(0) ] in
  for i = 1 to nodes - 1 do
    let v = order.(i) in
    let anchor = Sim.Prng.pick rng (Array.of_list !attached) in
    duplex topo v anchor capacity;
    Hashtbl.add edge_present (key v anchor) ();
    Hashtbl.add connected v ();
    attached := v :: !attached
  done;
  (* Chords. *)
  let added = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 100 * (extra_edges + 1) in
  while !added < extra_edges && !attempts < max_attempts do
    incr attempts;
    let a = Sim.Prng.int rng nodes in
    let b = Sim.Prng.int rng nodes in
    if a <> b && not (Hashtbl.mem edge_present (key a b)) then begin
      duplex topo a b capacity;
      Hashtbl.add edge_present (key a b) ();
      incr added
    end
  done;
  topo
