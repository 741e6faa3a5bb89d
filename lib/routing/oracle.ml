(* All-pairs static hop-distance oracle.

   One reverse BFS per destination over the raw topology (no admission
   predicates) fills a dense [n * n] int16 matrix: entry [dst * n + v] is
   the unconstrained hop distance from [v] to [dst].  The static distance
   lower-bounds every constrained distance, which is what makes it usable
   both as an A*-style pruning bound in {!Shortest.search} and as an O(1)
   replacement for feasibility pre-searches when no component is banned.

   The matrix is a Bigarray so it lives outside the OCaml heap: at 64x64
   (4096 nodes) it is 4096^2 * 2 bytes = 32 MiB that the GC never scans,
   and domains share it read-only without copies.  The whole matrix is
   built on first use, over the in-link CSR so the BFS reads only flat
   int arrays, and memoised per topology through [Sim.Memo], keyed by
   physical equality and checked against the link count at build time:
   an oracle lives no longer than its topology, and a topology mutated
   by [add_link] after its oracle was built gets a fresh one. *)

type matrix =
  (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  links_at_build : int;
  stride : int;  (* row length = num_nodes at build *)
  data : matrix;
}

(* int16 sentinel for "unreachable"; real distances are < num_nodes,
   which the [max_nodes] guard keeps below the sentinel. *)
let unreachable = 0xFFFF
let max_nodes = 0xFFFF
let stride t = t.stride
let raw t = t.data

let build topo =
  Sim.Prof.span "route.oracle_build" @@ fun () ->
  let n = Net.Topology.num_nodes topo in
  if n >= max_nodes then
    invalid_arg
      (Printf.sprintf
         "Routing.Oracle: %d nodes exceed the int16 distance encoding (max \
          %d)"
         n (max_nodes - 1));
  let data =
    Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout (n * n)
  in
  Bigarray.Array1.fill data unreachable;
  let queue = Array.make (max n 1) 0 in
  let { Net.Topology.off; peer; _ } = Net.Topology.in_csr topo in
  for dst = 0 to n - 1 do
    (* Reverse BFS from [dst]: distances *to* dst along link direction. *)
    let base = dst * n in
    Bigarray.Array1.unsafe_set data (base + dst) 0;
    queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = Array.unsafe_get queue !head in
      incr head;
      let du1 = Bigarray.Array1.unsafe_get data (base + u) + 1 in
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let v = Array.unsafe_get peer i in
        if Bigarray.Array1.unsafe_get data (base + v) = unreachable then begin
          Bigarray.Array1.unsafe_set data (base + v) du1;
          Array.unsafe_set queue !tail v;
          incr tail
        end
      done
    done
  done;
  { links_at_build = Net.Topology.num_links topo; stride = n; data }

let memo : (Net.Topology.t, t) Sim.Memo.t = Sim.Memo.create ()

let for_topo topo =
  Sim.Memo.find_or_build memo topo
    ~current:(fun o -> o.links_at_build = Net.Topology.num_links topo)
    (fun () -> build topo)

let for_topo_opt topo =
  if Net.Topology.num_nodes topo >= max_nodes then None
  else Some (for_topo topo)

let warm topo = ignore (for_topo_opt topo)

let distance t ~src ~dst =
  let n = t.stride in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Routing.Oracle.distance: node out of range";
  let d = Bigarray.Array1.unsafe_get t.data ((dst * n) + src) in
  if d = unreachable then max_int else d
