(* Dijkstra over the layered graph (node, hops used) so that a hop budget
   can be enforced exactly while minimising real-valued cost.  With budget
   H the state space is |V|·(H+1), tiny for the networks simulated here.
   Edges come from the out-link CSR in insertion order and costs are
   asked by link id, so a relaxation reads no link record. *)

type state = { cost : float; node : int; hops : int; seq : int }

let compare_states a b =
  match Float.compare a.cost b.cost with
  | 0 -> (
    match Int.compare a.hops b.hops with
    | 0 -> Int.compare a.seq b.seq
    | c -> c)
  | c -> c

let shortest_path ~cost ?(node_ok = fun _ -> true) ?max_hops topo ~src ~dst =
  let n = Net.Topology.num_nodes topo in
  let budget =
    match max_hops with
    | Some b -> b
    | None -> n - 1 (* loopless paths never need more hops *)
  in
  if src = dst then Some (Net.Path.make topo ~src ~dst ~links:[], 0.0)
  else begin
    let best = Array.make_matrix n (budget + 1) infinity in
    let parent = Array.make_matrix n (budget + 1) (-1) in
    let { Net.Topology.off; link; peer } = Net.Topology.out_csr topo in
    let heap = Sim.Heap.create ~cmp:compare_states in
    let seq = ref 0 in
    let push cost node hops =
      incr seq;
      Sim.Heap.push heap { cost; node; hops; seq = !seq }
    in
    best.(src).(0) <- 0.0;
    push 0.0 src 0;
    let answer = ref None in
    let continue = ref true in
    while !continue do
      match Sim.Heap.pop heap with
      | None -> continue := false
      | Some s ->
        if s.node = dst then begin
          answer := Some s;
          continue := false
        end
        else if s.cost <= best.(s.node).(s.hops) +. 1e-15 && s.hops < budget
        then
          for i = off.(s.node) to off.(s.node + 1) - 1 do
            let v = peer.(i) in
            if v = dst || node_ok v then
              match cost link.(i) with
              | None -> ()
              | Some w ->
                if w < 0.0 then
                  invalid_arg "Dijkstra.shortest_path: negative cost";
                let nc = s.cost +. w in
                let nh = s.hops + 1 in
                if nc < best.(v).(nh) -. 1e-15 then begin
                  best.(v).(nh) <- nc;
                  parent.(v).(nh) <- link.(i);
                  push nc v nh
                end
          done
    done;
    match !answer with
    | None -> None
    | Some s ->
      let rec rebuild node hops acc =
        if node = src && hops = 0 then acc
        else begin
          let id = parent.(node).(hops) in
          let l = Net.Topology.link topo id in
          rebuild l.Net.Topology.src (hops - 1) (id :: acc)
        end
      in
      let links = rebuild s.node s.hops [] in
      Some (Net.Path.make topo ~src ~dst ~links, s.cost)
  end
