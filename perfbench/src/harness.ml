(* What every workload shares: the run configuration, repeated set-ups,
   the recorded-result check and the result a run reports. *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  record : bool;  (** run every recorded op and write the expected file *)
}

(* Recorded results cover this seed; any other seed is checked by the
   self-tests instead. *)
let default_seed = 1

(* Untraced runs report the median of this many set-ups. *)
let setup_reps = 3

type result = {
  setup_s : float list;
  phase : Meter.phase;
  rss_mb : float;
  failed : int;  (** ops that raised, differed or tripped the monitor *)
  problems : string list;  (** every failed check, for the log *)
  layers : Layers.metric list;  (** traced runs only *)
  facts : (string * string) list;  (** workload facts for the fingerprint *)
}

(* The metrics of an untraced run. *)
let end_to_end r =
  let ops = Array.length r.phase.op_ns in
  let us = Array.map (fun ns -> ns /. 1e3) r.phase.op_ns in
  let m name unit value = { Layers.name; unit; value } in
  [
    m "setup_s" "s" (Meter.median r.setup_s);
    m "ops_per_s" "1/s" (float_of_int ops /. r.phase.wall_s);
    m "op_p50_us" "us" (Meter.percentile us 50.0);
    m "op_p90_us" "us" (Meter.percentile us 90.0);
    m "peak_rss_mb" "MB" r.rss_mb;
  ]

(* ---------- recorded results ---------- *)

(* Relative to the root of the checkout, where the benchmark runs. *)
let expected_dir = "perfbench/expected"

let expected_path name = Filename.concat expected_dir (name ^ ".txt")

(* One "key value" line per op (or chunk of ops), plus the "setup" line. *)
let load_expected name =
  let tbl = Hashtbl.create 1024 in
  let ic = open_in (expected_path name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match String.index_opt line ' ' with
          | Some i ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
          | None -> ()
        done
      with End_of_file -> ());
  tbl

let save_expected name lines =
  let oc = open_out (expected_path name) in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) lines;
  close_out oc

(* ---------- set-up ---------- *)

type 'st setups = {
  state : 'st;  (** the last set-up, which the ops run against *)
  times : float list;
  report : Sim.Prof.report option;  (** of the traced set-up *)
  gc : float * float;  (** minor and major words of the first set-up *)
  agree : bool;  (** every set-up gave the same record *)
  record : string;
}

(* Set up from scratch several times, each timed.  A traced run sets up
   twice, untraced and then traced, so the two must agree. *)
let setups cfg ~build ~record =
  let reps = if cfg.trace then 2 else setup_reps in
  let rec go i acc_t acc_r report gc =
    Gc.compact ();
    let traced = cfg.trace && i = reps in
    let minor0, major0 = Meter.gc_words () in
    let t0 = Meter.now_ns () in
    let st, report =
      if traced then
        let st, r = Layers.capture build in
        (st, Some r)
      else (build (), report)
    in
    let t = Meter.since_s t0 in
    let minor1, major1 = Meter.gc_words () in
    let gc = if i = 1 then (minor1 -. minor0, major1 -. major0) else gc in
    let acc_t = t :: acc_t and acc_r = record st :: acc_r in
    if i = reps then
      {
        state = st;
        times = List.rev acc_t;
        report;
        gc;
        agree = List.for_all (String.equal (List.hd acc_r)) acc_r;
        record = List.hd acc_r;
      }
    else go (i + 1) acc_t acc_r report gc
  in
  go 1 [] [] None (0.0, 0.0)

(* ---------- checks ---------- *)

type checks = { mutable failed : int; mutable problems : string list }

let checks () = { failed = 0; problems = [] }
let problem c msg = c.problems <- msg :: c.problems

let fail_op c msg =
  c.failed <- c.failed + 1;
  if c.failed <= 5 then problem c msg

let check_setup c cfg ~name (s : _ setups) =
  if not s.agree then problem c "set-ups disagree (traced vs untraced or run to run)";
  if cfg.seed = default_seed && not cfg.record then
    match Hashtbl.find_opt (load_expected name) "setup" with
    | Some r when r = s.record -> ()
    | Some r -> problem c (Printf.sprintf "set-up %s, recorded %s" s.record r)
    | None -> problem c "no recorded set-up"

(* The timed phase, after a compaction so that every run starts it from
   the same heap; a traced run profiles it. *)
let timed_phase cfg ~seconds ~min_ops ~max_ops op =
  Gc.compact ();
  let phase () = Meter.timed ~seconds ~min_ops ~max_ops op in
  if cfg.trace then
    let p, r = Layers.capture phase in
    (p, Some r)
  else (phase (), None)

(* Run [f] in the other tracing mode than the run's own: the self-test
   that observing a run does not change it. *)
let other_mode cfg f = if cfg.trace then f () else fst (Layers.capture f)

let exn_record e = "raised " ^ Printexc.to_string e

(* Ops run until the time is up, but never fewer than this, so that the
   90th percentile has 10 ops beyond it. *)
let min_ops = 100
