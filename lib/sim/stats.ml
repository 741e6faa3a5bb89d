module Running = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let min t = t.min
  let max t = t.max

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      {
        n;
        mean;
        m2;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
      }
    end
end

module Sample = struct
  type t = { mutable data : float array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let add t x =
    let cap = Array.length t.data in
    if t.size = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ndata = Array.make ncap 0.0 in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1

  let count t = t.size

  let mean t =
    if t.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.size - 1 do
        sum := !sum +. t.data.(i)
      done;
      !sum /. float_of_int t.size
    end

  let to_array t =
    let a = Array.sub t.data 0 t.size in
    Array.sort Float.compare a;
    a

  let percentile t p =
    if t.size = 0 then invalid_arg "Stats.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Sample.percentile: p outside [0,100]";
    let a = to_array t in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

  let median t = percentile t 50.0

  let max t =
    if t.size = 0 then invalid_arg "Stats.Sample.max: empty sample";
    let a = to_array t in
    a.(Array.length a - 1)

  let min t =
    if t.size = 0 then invalid_arg "Stats.Sample.min: empty sample";
    (to_array t).(0)

  let append ~into src =
    let need = into.size + src.size in
    if need > Array.length into.data then begin
      let ncap = ref (Stdlib.max 16 (Array.length into.data)) in
      while !ncap < need do
        ncap := !ncap * 2
      done;
      let ndata = Array.make !ncap 0.0 in
      Array.blit into.data 0 ndata 0 into.size;
      into.data <- ndata
    end;
    Array.blit src.data 0 into.data into.size src.size;
    into.size <- need
end

module Histogram = struct
  type t = { lo : float; hi : float; counts : int array; mutable total : int }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Stats.Histogram.create: bins must be positive";
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi must exceed lo";
    { lo; hi; counts = Array.make bins 0; total = 0 }

  let add t x =
    let bins = Array.length t.counts in
    let idx =
      int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
    in
    let idx = Stdlib.max 0 (Stdlib.min (bins - 1) idx) in
    t.counts.(idx) <- t.counts.(idx) + 1;
    t.total <- t.total + 1

  let counts t = Array.copy t.counts
  let total t = t.total

  let merge_into ~into src =
    if
      into.lo <> src.lo || into.hi <> src.hi
      || Array.length into.counts <> Array.length src.counts
    then invalid_arg "Stats.Histogram.merge_into: shape mismatch";
    Array.iteri
      (fun i c -> into.counts.(i) <- into.counts.(i) + c)
      src.counts;
    into.total <- into.total + src.total

  let bin_edges t =
    let bins = Array.length t.counts in
    Array.init (bins + 1) (fun i ->
        t.lo +. (float_of_int i *. (t.hi -. t.lo) /. float_of_int bins))
end

let ratio num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den
