(* Wall-clock, memory and GC measurements taken from outside the program:
   every timing reads the monotonic clock around calls into public
   functions. *)

let now_ns = Sim.Prof.now_ns
let since_s t0 = (now_ns () -. t0) /. 1e9

(* Peak resident set size (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* A growable array; [fill] pads the unused tail. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec fill = { items = Array.make 4096 fill; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let bigger = Array.make (2 * v.len) x in
    Array.blit v.items 0 bigger 0 v.len;
    v.items <- bigger
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

type phase = {
  op_ns : float array;  (** wall time of each op, in run order *)
  wall_s : float;  (** wall time of the whole phase *)
  minor_words : float;  (** allocated during the phase *)
  major_words : float;
}

(* Run [op 0], [op 1], ... until [seconds] have passed and at least
   [min_ops] ops ran, or until [max_ops] ops ran.  [op] must not raise:
   the workloads record a raised exception as the op's result. *)
let timed ~seconds ~min_ops ~max_ops op =
  let times = vec 0.0 in
  let budget = seconds *. 1e9 in
  let minor0, major0 = gc_words () in
  let t0 = now_ns () in
  while times.len < max_ops && (times.len < min_ops || now_ns () -. t0 < budget) do
    let a = now_ns () in
    op times.len;
    push times (now_ns () -. a)
  done;
  let wall_s = since_s t0 in
  let minor1, major1 = gc_words () in
  {
    op_ns = Array.sub times.items 0 times.len;
    wall_s;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
  }

let percentile values p =
  let s = Sim.Stats.Sample.create () in
  Array.iter (Sim.Stats.Sample.add s) values;
  Sim.Stats.Sample.percentile s p

let median values = percentile (Array.of_list values) 50.0
let sum values = Array.fold_left ( +. ) 0.0 values
