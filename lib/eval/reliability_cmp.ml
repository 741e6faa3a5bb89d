type row = {
  hops : int;
  components : int;
  r_markov_3a : float;
  r_markov_3b : float;
  pr_combinatorial : float;
  mttf_hours : float;
}

let lambda_per_hour = 1e-3
let mu_per_hour = 60.0
let t_hours = 1.0

let compute ~hops =
  (* Pure per-hop computation; runs on the domain pool. *)
  Sim.Pool.map
    (fun h ->
      if h < 1 then invalid_arg "Reliability_cmp.compute: hops must be >= 1";
      (* A channel of h hops has h links + (h+1) nodes. *)
      let c = (2 * h) + 1 in
      let channel_rate = float_of_int c *. lambda_per_hour in
      let m3a =
        Reliability.Markov.Dconn.figure_3a
          {
            Reliability.Markov.Dconn.lambda1 = channel_rate;
            lambda2 = channel_rate;
            lambda3 = 0.0 (* disjoint channels share nothing *);
            mu = mu_per_hour;
          }
      in
      let m3b =
        Reliability.Markov.Dconn.figure_3b ~lambda:channel_rate ~mu:mu_per_hour
      in
      let pr =
        Reliability.Combinatorial.pr_single_backup
          ~lambda:(lambda_per_hour *. t_hours)
          ~c_primary:c ~c_backup:c ~p_muxf:0.0
      in
      {
        hops = h;
        components = c;
        r_markov_3a = Reliability.Markov.Dconn.reliability m3a ~t_end:t_hours;
        r_markov_3b = Reliability.Markov.Dconn.reliability m3b ~t_end:t_hours;
        pr_combinatorial = pr;
        mttf_hours = Reliability.Markov.Dconn.mttf m3b;
      })
    hops

let report rows =
  let r =
    Report.make
      ~title:
        "Figure 3 models: D-connection reliability, single disjoint backup"
      ~columns:
        [ "components"; "R(t) Markov 3a"; "R(t) Markov 3b"; "P_r combinatorial"; "MTTF (h)" ]
  in
  List.iter
    (fun row ->
      Report.add_row r ~label:(Printf.sprintf "%d hops" row.hops)
        ~cells:
          [
            string_of_int row.components;
            Printf.sprintf "%.9f" row.r_markov_3a;
            Printf.sprintf "%.9f" row.r_markov_3b;
            Printf.sprintf "%.9f" row.pr_combinatorial;
            Printf.sprintf "%.0f" row.mttf_hours;
          ])
    rows;
  r
