type request = {
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  mux_degree : int;
  backups : int;
}

(* Every generated request allows a hop slack of 2. *)
let make_request ~bandwidth ~backups ~mux_degree ~src ~dst =
  {
    src;
    dst;
    traffic = Rtchan.Traffic.of_bandwidth bandwidth;
    qos = Rtchan.Qos.default;
    mux_degree;
    backups;
  }

let all_pairs ?(backups = 1) ?(mux_degree = 1) topo =
  let n = Net.Topology.num_nodes topo in
  let out = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then
        out :=
          make_request ~bandwidth:1.0 ~backups ~mux_degree ~src ~dst :: !out
    done
  done;
  !out

let shuffled rng requests = Sim.Prng.shuffle_list rng requests

let with_mux_mix ~degrees requests =
  match degrees with
  | [] -> invalid_arg "Generator.with_mux_mix: empty degree list"
  | _ ->
    let k = List.length degrees in
    List.mapi
      (fun i r -> { r with mux_degree = List.nth degrees (i mod k) })
      requests

let with_bandwidth_mix rng ~choices requests =
  match choices with
  | [] -> invalid_arg "Generator.with_bandwidth_mix: empty choice list"
  | _ ->
    let arr = Array.of_list choices in
    List.map
      (fun r ->
        let bw = Sim.Prng.pick rng arr in
        { r with traffic = Rtchan.Traffic.of_bandwidth bw })
      requests

let distinct_pair rng n =
  let src = Sim.Prng.int rng n in
  let rec draw () =
    let dst = Sim.Prng.int rng n in
    if dst = src then draw () else dst
  in
  (src, draw ())

let random_pairs rng ?(bandwidth = 1.0) ?(backups = 1) ?(mux_degree = 1) topo
    ~count =
  let n = Net.Topology.num_nodes topo in
  if n < 2 then invalid_arg "Generator.random_pairs: need two nodes";
  List.init count (fun _ ->
      let src, dst = distinct_pair rng n in
      make_request ~bandwidth ~backups ~mux_degree ~src ~dst)

let hotspot rng ?(backups = 1) ?(mux_degree = 1) topo ~hotspots ~fraction
    ~count =
  if hotspots = [] then invalid_arg "Generator.hotspot: no hotspot nodes";
  if fraction < 0.0 || fraction > 1.0 then
    invalid_arg "Generator.hotspot: fraction outside [0,1]";
  let n = Net.Topology.num_nodes topo in
  let hot = Array.of_list hotspots in
  List.init count (fun _ ->
      if Sim.Prng.float rng 1.0 < fraction then begin
        let dst = Sim.Prng.pick rng hot in
        let rec draw () =
          let src = Sim.Prng.int rng n in
          if src = dst then draw () else src
        in
        make_request ~bandwidth:1.0 ~backups ~mux_degree ~src:(draw ()) ~dst
      end
      else begin
        let src, dst = distinct_pair rng n in
        make_request ~bandwidth:1.0 ~backups ~mux_degree ~src ~dst
      end)
