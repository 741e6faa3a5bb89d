type t = {
  n : int;
  q : float array array; (* generator; diagonal maintained on read *)
}

let create ~states =
  if states <= 0 then invalid_arg "Markov.create: need at least one state";
  { n = states; q = Array.make_matrix states states 0.0 }

let add_rate t ~src ~dst rate =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Markov.add_rate: state out of range";
  if src = dst then invalid_arg "Markov.add_rate: self transition";
  if rate < 0.0 then invalid_arg "Markov.add_rate: negative rate";
  t.q.(src).(dst) <- t.q.(src).(dst) +. rate

(* Generator with diagonal = -(row sum). *)
let generator t =
  let g = Array.map Array.copy t.q in
  for i = 0 to t.n - 1 do
    let row_sum = ref 0.0 in
    for j = 0 to t.n - 1 do
      if j <> i then row_sum := !row_sum +. g.(i).(j)
    done;
    g.(i).(i) <- -. !row_sum
  done;
  g

let mat_mul n a b =
  let c = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = a.(i).(k) in
      if aik <> 0.0 then
        for j = 0 to n - 1 do
          c.(i).(j) <- c.(i).(j) +. (aik *. b.(k).(j))
        done
    done
  done;
  c

let mat_add_scaled n a b s =
  let c = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      c.(i).(j) <- a.(i).(j) +. (s *. b.(i).(j))
    done
  done;
  c

let identity n =
  let m = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    m.(i).(i) <- 1.0
  done;
  m

(* exp(A) by scaling-and-squaring with a Taylor series on the scaled
   matrix.  Adequate for the small dense generators used here. *)
let mat_exp n a =
  let norm =
    Array.fold_left
      (fun acc row -> Float.max acc (Array.fold_left (fun s x -> s +. Float.abs x) 0.0 row))
      0.0 a
  in
  let s = if norm <= 0.5 then 0 else int_of_float (ceil (log (norm /. 0.5) /. log 2.0)) in
  let scale = 1.0 /. Float.of_int (1 lsl min s 62) in
  let s = min s 62 in
  let scaled = Array.map (Array.map (fun x -> x *. scale)) a in
  (* Taylor: sum_{k=0..K} scaled^k / k! *)
  let result = ref (identity n) in
  let term = ref (identity n) in
  for k = 1 to 24 do
    term := mat_mul n !term scaled;
    let fk = 1.0 /. float_of_int k in
    term := Array.map (Array.map (fun x -> x *. fk)) !term;
    result := mat_add_scaled n !result !term 1.0
  done;
  let m = ref !result in
  for _ = 1 to s do
    m := mat_mul n !m !m
  done;
  !m

let transient t ~initial ~t_end =
  if Array.length initial <> t.n then
    invalid_arg "Markov.transient: initial distribution has wrong length";
  let total = Array.fold_left ( +. ) 0.0 initial in
  if Float.abs (total -. 1.0) > 1e-6 then
    invalid_arg "Markov.transient: initial distribution must sum to 1";
  if t_end < 0.0 then invalid_arg "Markov.transient: negative time";
  let g = generator t in
  let qt = Array.map (Array.map (fun x -> x *. t_end)) g in
  let m = mat_exp t.n qt in
  let out = Array.make t.n 0.0 in
  for j = 0 to t.n - 1 do
    let acc = ref 0.0 in
    for i = 0 to t.n - 1 do
      acc := !acc +. (initial.(i) *. m.(i).(j))
    done;
    out.(j) <- !acc
  done;
  out

let absorbing_probability t ~initial ~absorbing ~t_end =
  let init = Array.make t.n 0.0 in
  if initial < 0 || initial >= t.n then
    invalid_arg "Markov.absorbing_probability: initial state out of range";
  init.(initial) <- 1.0;
  let dist = transient t ~initial:init ~t_end in
  List.fold_left (fun acc s -> acc +. dist.(s)) 0.0 absorbing

module Dconn = struct
  type params = { lambda1 : float; lambda2 : float; lambda3 : float; mu : float }

  let figure_3a p =
    let m = create ~states:4 in
    add_rate m ~src:0 ~dst:1 p.lambda1;
    add_rate m ~src:0 ~dst:2 p.lambda2;
    add_rate m ~src:0 ~dst:3 p.lambda3;
    add_rate m ~src:1 ~dst:0 p.mu;
    add_rate m ~src:1 ~dst:3 (p.lambda2 +. p.lambda3);
    add_rate m ~src:2 ~dst:0 p.mu;
    add_rate m ~src:2 ~dst:3 (p.lambda1 +. p.lambda3);
    m

  let figure_3b ~lambda ~mu =
    let m = create ~states:3 in
    add_rate m ~src:0 ~dst:1 (2.0 *. lambda);
    add_rate m ~src:1 ~dst:0 mu;
    add_rate m ~src:1 ~dst:2 lambda;
    m

  let reliability t ~t_end =
    1.0 -. absorbing_probability t ~initial:0 ~absorbing:[ t.n - 1 ] ~t_end

  (* Mean time to absorption: solve (-Q_T) m = 1 over transient states,
     absorbing state = highest-numbered.  Gaussian elimination with
     partial pivoting; the systems are tiny. *)
  let mttf t =
    let k = t.n - 1 in
    let g = generator t in
    let a = Array.make_matrix k (k + 1) 0.0 in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        a.(i).(j) <- -.g.(i).(j)
      done;
      a.(i).(k) <- 1.0
    done;
    for col = 0 to k - 1 do
      (* pivot *)
      let best = ref col in
      for r = col + 1 to k - 1 do
        if Float.abs a.(r).(col) > Float.abs a.(!best).(col) then best := r
      done;
      let tmp = a.(col) in
      a.(col) <- a.(!best);
      a.(!best) <- tmp;
      if Float.abs a.(col).(col) < 1e-300 then
        invalid_arg "Markov.Dconn.mttf: singular system (state cannot reach absorption)";
      for r = 0 to k - 1 do
        if r <> col then begin
          let f = a.(r).(col) /. a.(col).(col) in
          for c = col to k do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done
        end
      done
    done;
    a.(0).(k) /. a.(0).(0)
end
