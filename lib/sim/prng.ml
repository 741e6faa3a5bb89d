(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  State is a single 64-bit counter advanced by
   the golden gamma; output is a finalizer over the counter. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

let derive ~seed ~index =
  if index < 0 then invalid_arg "Prng.derive: index must be >= 0";
  let z =
    Int64.add
      (mix64 (Int64.of_int seed))
      (Int64.mul (Int64.of_int (index + 1)) golden_gamma)
  in
  Int64.to_int (Int64.shift_right_logical (mix64 z) 2)

(* Non-negative 62-bit int from the top bits. *)
let positive_int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max = (1 lsl 62) - 1 in
  let limit = max - (max mod bound) in
  let rec draw () =
    let v = positive_int t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = float t 1.0 in
  (* u = 0 would give infinity; nudge into (0, 1]. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 then invalid_arg "Prng.sample_without_replacement: k < 0";
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Partial Fisher-Yates over [0, n). *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)

let sample_at_most t k n =
  if k < 0 then invalid_arg "Prng.sample_at_most: k < 0";
  sample_without_replacement t (min k n) n
