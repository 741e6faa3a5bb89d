(* Static R_fast answers at scale: every single-link and single-node
   scenario of a loaded 64x64 torus through [Bcp.Recovery.simulate]. *)

let requests = 4096

(* The head of the scaling tier's seeded random-pair stream. *)
let build ~seed () =
  let topo = Eval.Setup.topology_of Eval.Setup.Torus64 in
  let ns = Bcp.Netstate.create ~lambda:1e-4 topo () in
  Eval.Setup.establish_all ns
    (Workload.Generator.random_pairs (Sim.Prng.create seed) ~backups:1
       ~mux_degree:3 topo ~count:requests)

let spec =
  {
    Sweep.name = "rfast64";
    build;
    netstate = (fun (e : Eval.Setup.establishment) -> e.ns);
    record =
      (fun e ->
        Ops.setup_record ~established:e.established ~rejected:e.rejected e.ns);
    exec =
      (fun e sc ->
        let r = Ops.simulate e.ns sc in
        (Ops.static_record r, true, [ ("recovery.affected_per_op", r.affected) ]));
    slice = 1000;
    facts = [ ("requests", string_of_int requests) ];
  }

let run = Sweep.run spec
