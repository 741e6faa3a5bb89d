(* Tests for the simulation substrate: PRNG, heap, engine, stats, trace. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 123 and b = Sim.Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.bits64 a) (Sim.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Sim.Prng.bits64 a = Sim.Prng.bits64 b)

let test_prng_int_range () =
  let rng = Sim.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int rng 17 in
    if not (v >= 0 && v < 17) then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_rejects_zero () =
  let rng = Sim.Prng.create 7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Sim.Prng.int rng 0))

let test_prng_float_range () =
  let rng = Sim.Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.float rng 3.5 in
    if not (v >= 0.0 && v < 3.5) then Alcotest.failf "out of range: %f" v
  done

let test_prng_uniformity () =
  (* Coarse balance check: 10 buckets, 10k draws. *)
  let rng = Sim.Prng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      if not (c > 700 && c < 1300) then Alcotest.failf "unbalanced bucket: %d" c)
    buckets

let test_prng_exponential_mean () =
  let rng = Sim.Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Prng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (mean > 4.8 && mean < 5.2)

let test_prng_shuffle_permutation () =
  let rng = Sim.Prng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independence () =
  let parent = Sim.Prng.create 23 in
  let child = Sim.Prng.split parent in
  Alcotest.(check bool) "streams differ" false
    (Sim.Prng.bits64 parent = Sim.Prng.bits64 child)

let test_prng_sample_without_replacement () =
  let rng = Sim.Prng.create 29 in
  let s = Sim.Prng.sample_without_replacement rng 10 20 in
  Alcotest.(check int) "ten values" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq Int.compare s));
  List.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
    s

(* A negative count is the caller's error, named by the function. *)
let test_prng_sample_negative () =
  let rng = Sim.Prng.create 29 in
  Alcotest.(check (list int)) "k = 0 is empty" []
    (Sim.Prng.sample_without_replacement rng 0 5);
  Alcotest.(check (list int)) "at most 0 is empty" []
    (Sim.Prng.sample_at_most rng 0 5);
  Alcotest.check_raises "negative k"
    (Invalid_argument "Prng.sample_without_replacement: k < 0") (fun () ->
      ignore (Sim.Prng.sample_without_replacement rng (-1) 5));
  Alcotest.check_raises "negative k, at most"
    (Invalid_argument "Prng.sample_at_most: k < 0") (fun () ->
      ignore (Sim.Prng.sample_at_most rng (-3) 5))

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  List.iter (Sim.Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Sim.Heap.to_sorted_list h);
  Alcotest.(check int) "length intact" 7 (Sim.Heap.length h)

let test_heap_pop_order () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  List.iter (Sim.Heap.push h) [ 4; 4; 1; 4 ];
  Alcotest.(check (option int)) "min first" (Some 1) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Sim.Heap.pop h)

let test_heap_empty () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "is_empty" true (Sim.Heap.length h = 0);
  Alcotest.(check (option int)) "peek none" None (Sim.Heap.peek h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Sim.Heap.create ~cmp:Int.compare in
      List.iter (Sim.Heap.push h) l;
      Sim.Heap.to_sorted_list h = List.sort Int.compare l)

(* ---------- Engine ---------- *)

let test_engine_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun i -> ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)))
    [ 1; 2; 3; 4 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Alcotest.(check int) "pending zero" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled never fires" false !fired

let test_engine_cancel_idempotent () =
  let e = Sim.Engine.create () in
  let h = Sim.Engine.schedule e ~at:1.0 (fun () -> ()) in
  Sim.Engine.cancel e h;
  Sim.Engine.cancel e h;
  Alcotest.(check int) "pending stays 0" 0 (Sim.Engine.pending e)

let test_engine_schedule_in_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:5.0 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* NaN compares false against everything, so a plain [at < now] check
   lets it through and [run ~until] then stops at it for good. *)
let test_engine_nan_rejected () =
  let e = Sim.Engine.create () in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "NaN time" true
    (raises (fun () -> Sim.Engine.schedule e ~at:Float.nan (fun () -> ())));
  Alcotest.(check bool) "NaN delay" true
    (raises (fun () -> Sim.Engine.schedule_after e ~delay:Float.nan (fun () -> ())));
  Alcotest.(check bool) "negative delay" true
    (raises (fun () -> Sim.Engine.schedule_after e ~delay:(-1.0) (fun () -> ())));
  Alcotest.(check int) "nothing queued" 0 (Sim.Engine.pending e);
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:Float.infinity (fun () -> log := "at" :: !log));
  ignore
    (Sim.Engine.schedule_after e ~delay:Float.infinity (fun () ->
         log := "after" :: !log));
  ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> log := "one" :: !log));
  Sim.Engine.run ~until:2.0 e;
  Alcotest.(check (list string)) "finite event runs" [ "one" ] !log;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "+inf is legal, FIFO at +inf"
    [ "one"; "at"; "after" ] (List.rev !log);
  check_float "clock" Float.infinity (Sim.Engine.now e)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:1.0 (fun () ->
         log := "a" :: !log;
         ignore
           (Sim.Engine.schedule_after e ~delay:0.5 (fun () ->
                log := "b" :: !log))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested runs" [ "a"; "b" ] (List.rev !log);
  check_float "clock" 1.5 (Sim.Engine.now e)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~at:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "five fired" 5 !count;
  check_float "clock advanced to horizon" 5.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_cancel_keeps_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let at t tag = Sim.Engine.schedule e ~at:t (fun () -> log := tag :: !log) in
  let _a = at 1.0 "a" and b = at 1.0 "b" and _c = at 1.0 "c" in
  let d = at 0.5 "d" and _e = at 2.0 "e" in
  Sim.Engine.cancel e b;
  Sim.Engine.cancel e d;
  Alcotest.(check int) "pending after cancel" 3 (Sim.Engine.pending e);
  (* The freed slot is reused at once; the stale handle must not touch
     the new event. *)
  let _f = at 1.0 "f" in
  Sim.Engine.cancel e b;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "c"; "f"; "e" ] (List.rev !log)

let test_engine_due_now () =
  let e = Sim.Engine.create () in
  Alcotest.(check bool) "empty" false (Sim.Engine.due_now e);
  ignore
    (Sim.Engine.schedule e ~at:1.0 (fun () ->
         Alcotest.(check bool) "alone at 1.0" false (Sim.Engine.due_now e);
         let h = Sim.Engine.schedule e ~at:1.0 (fun () -> ()) in
         Alcotest.(check bool) "same-time event" true (Sim.Engine.due_now e);
         Sim.Engine.cancel e h;
         Alcotest.(check bool) "cancelled" false (Sim.Engine.due_now e)));
  ignore (Sim.Engine.schedule e ~at:2.0 (fun () -> ()));
  Alcotest.(check bool) "future only" false (Sim.Engine.due_now e);
  Alcotest.(check bool) "step" true (Sim.Engine.step e);
  Alcotest.(check bool) "later event not due" false (Sim.Engine.due_now e)

(* Model test: random schedule / cancel / step / run-until sequences
   against a sorted-list reference.  Delays are multiples of 0.25 so
   ties are common, and there are more distinct delays than the engine
   has lanes, so lanes are re-keyed and some delays fall back to the
   heap.  Events are scheduled relative ([schedule_after]) or absolute
   ([schedule ~at]); a relative event may schedule one child when it
   fires.  A cancel names any event ever scheduled (pending, fired,
   cancelled, or with its slot since reused), or the event due next,
   which sits at a lane head or the heap top.  Some sequences run under
   a perturbation hook that delays every other [Timer] by 0.5 and
   returns a negative extra, which must be ignored, for [Message]. *)
type engine_cmd =
  | Sched of int * Sim.Engine.klass * int option
      (** delay in quarters, class, child delay *)
  | At of int * Sim.Engine.klass  (** absolute, in quarters past now *)
  | Cancel of int  (** event index, modulo the events so far *)
  | Cancel_next
  | Step
  | Run_until of int  (** horizon in quarters past now *)

let klass_name = function
  | Sim.Engine.Message -> "msg"
  | Sim.Engine.Timer -> "timer"
  | Sim.Engine.Internal -> "int"

let pp_engine_cmd = function
  | Sched (d, k, None) -> Printf.sprintf "Sched %d %s" d (klass_name k)
  | Sched (d, k, Some c) -> Printf.sprintf "Sched %d %s->%d" d (klass_name k) c
  | At (d, k) -> Printf.sprintf "At +%d %s" d (klass_name k)
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Cancel_next -> "Cancel_next"
  | Step -> "Step"
  | Run_until d -> Printf.sprintf "Run_until %d" d

let engine_cmds =
  let open QCheck.Gen in
  let klass = oneofl [ Sim.Engine.Message; Sim.Engine.Timer; Sim.Engine.Internal ] in
  let cmd =
    frequency
      [
        ( 5,
          map3
            (fun d k c -> Sched (d, k, c))
            (int_range 0 12) klass
            (opt ~ratio:0.3 (int_range 0 4)) );
        (1, map2 (fun d k -> At (d, k)) (int_range 0 12) klass);
        (3, map (fun k -> Cancel k) (int_range 0 1_000));
        (1, return Cancel_next);
        (2, return Step);
        (1, map (fun d -> Run_until d) (int_range 0 6));
      ]
  in
  QCheck.make
    ~print:(fun (perturbed, l) ->
      Printf.sprintf "perturbed=%b: %s" perturbed
        (String.concat "; " (List.map pp_engine_cmd l)))
    ~shrink:QCheck.Shrink.(pair bool list)
    (pair bool (list_size (int_range 0 200) cmd))

type model_ev = { m_at : float; m_seq : int; m_id : int; m_child : int option }

let quarter n = 0.25 *. float_of_int n

(* Every other [Timer] gets 0.5 extra; a [Message] gets a negative
   extra, which leaves it on time. *)
let every_other_timer () =
  let timers = ref 0 in
  fun klass ~delay:_ ->
    match klass with
    | Sim.Engine.Timer ->
      incr timers;
      if !timers land 1 = 1 then 0.5 else 0.0
    | Sim.Engine.Message | Sim.Engine.Internal -> -1.0

let prop_engine_model =
  QCheck.Test.make ~name:"engine = sorted-list reference" ~count:500
    engine_cmds (fun (perturbed, cmds) ->
      (* Reference. *)
      let clock = ref 0.0 and seq = ref 0 and ids = ref 0 in
      let pending = ref [] and mlog = ref [] in
      let m_extra =
        if perturbed then begin
          let hook = every_other_timer () in
          fun klass ->
            match klass with
            | Sim.Engine.Internal -> 0.0
            | k -> Float.max 0.0 (hook k ~delay:0.0)
        end
        else fun _ -> 0.0
      in
      let before a b = a.m_at < b.m_at || (a.m_at = b.m_at && a.m_seq < b.m_seq) in
      let rec insert ev = function
        | [] -> [ ev ]
        | x :: rest as l -> if before ev x then ev :: l else x :: insert ev rest
      in
      let m_sched ?(klass = Sim.Engine.Internal) d child =
        let at = !clock +. quarter d in
        let extra = m_extra klass in
        let at = if extra > 0.0 then at +. extra else at in
        let ev = { m_at = at; m_seq = !seq; m_id = !ids; m_child = child } in
        incr seq;
        incr ids;
        pending := insert ev !pending
      in
      let m_step () =
        match !pending with
        | [] -> ()
        | ev :: rest ->
          pending := rest;
          clock := ev.m_at;
          mlog := ev.m_id :: !mlog;
          Option.iter (fun c -> m_sched c None) ev.m_child
      in
      (* Engine under test. *)
      let e = Sim.Engine.create () in
      if perturbed then Sim.Engine.set_perturb e (Some (every_other_timer ()));
      let handles = Hashtbl.create 64 and elog = ref [] and eids = ref 0 in
      let rec e_sched ?klass d child =
        let id = !eids in
        incr eids;
        let h =
          Sim.Engine.schedule_after ?klass e ~delay:(quarter d) (fun () ->
              elog := id :: !elog;
              Option.iter (fun c -> e_sched c None) child)
        in
        Hashtbl.replace handles id h
      in
      let e_at klass d =
        let id = !eids in
        incr eids;
        let h =
          Sim.Engine.schedule ~klass e
            ~at:(Sim.Engine.now e +. quarter d)
            (fun () -> elog := id :: !elog)
        in
        Hashtbl.replace handles id h
      in
      let cancel id =
        pending := List.filter (fun ev -> ev.m_id <> id) !pending;
        Sim.Engine.cancel e (Hashtbl.find handles id)
      in
      let agree label =
        if !elog <> !mlog then QCheck.Test.fail_reportf "%s: dispatch order" label;
        if Sim.Engine.pending e <> List.length !pending then
          QCheck.Test.fail_reportf "%s: pending %d, reference %d" label
            (Sim.Engine.pending e) (List.length !pending);
        if Sim.Engine.now e <> !clock then
          QCheck.Test.fail_reportf "%s: clock" label;
        let due = match !pending with ev :: _ -> ev.m_at <= !clock | [] -> false in
        if Sim.Engine.due_now e <> due then
          QCheck.Test.fail_reportf "%s: due_now" label
      in
      List.iter
        (fun cmd ->
          (match cmd with
          | Sched (d, klass, child) ->
            m_sched ~klass d child;
            e_sched ~klass d child
          | At (d, klass) ->
            m_sched ~klass d None;
            e_at klass d
          | Cancel k -> if !ids > 0 then cancel (k mod !ids)
          | Cancel_next -> (
            match !pending with ev :: _ -> cancel ev.m_id | [] -> ())
          | Step ->
            let had = !pending <> [] in
            m_step ();
            if Sim.Engine.step e <> had then
              QCheck.Test.fail_report "step: result"
          | Run_until d ->
            let horizon = !clock +. quarter d in
            let rec go () =
              match !pending with
              | ev :: _ when ev.m_at <= horizon ->
                m_step ();
                go ()
              | _ -> ()
            in
            go ();
            if !clock < horizon then clock := horizon;
            Sim.Engine.run ~until:horizon e);
          agree (pp_engine_cmd cmd))
        cmds;
      while !pending <> [] do
        m_step ()
      done;
      Sim.Engine.run e;
      agree "drain";
      true)

(* ---------- Stats ---------- *)

let test_running_stats () =
  let r = Sim.Stats.Running.create () in
  List.iter (Sim.Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Sim.Stats.Running.mean r);
  check_float "variance" (32.0 /. 7.0) (Sim.Stats.Running.variance r);
  check_float "min" 2.0 (Sim.Stats.Running.min r);
  check_float "max" 9.0 (Sim.Stats.Running.max r);
  Alcotest.(check int) "count" 8 (Sim.Stats.Running.count r)

let test_running_merge () =
  let a = Sim.Stats.Running.create () and b = Sim.Stats.Running.create () in
  let all = Sim.Stats.Running.create () in
  List.iter
    (fun v ->
      Sim.Stats.Running.add all v;
      if v < 5.0 then Sim.Stats.Running.add a v else Sim.Stats.Running.add b v)
    [ 1.0; 2.0; 3.0; 6.0; 7.0; 8.0; 9.0 ];
  let m = Sim.Stats.Running.merge a b in
  check_float "merged mean" (Sim.Stats.Running.mean all) (Sim.Stats.Running.mean m);
  check_float "merged var"
    (Sim.Stats.Running.variance all)
    (Sim.Stats.Running.variance m)

let test_sample_percentiles () =
  let s = Sim.Stats.Sample.create () in
  for i = 1 to 100 do
    Sim.Stats.Sample.add s (float_of_int i)
  done;
  check_float "median" 50.5 (Sim.Stats.Sample.median s);
  check_float "p0" 1.0 (Sim.Stats.Sample.percentile s 0.0);
  check_float "p100" 100.0 (Sim.Stats.Sample.percentile s 100.0);
  check_float "max" 100.0 (Sim.Stats.Sample.max s);
  check_float "min" 1.0 (Sim.Stats.Sample.min s)

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Sim.Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.5; -3.0; 42.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "bin0 (incl clamp)" 2 counts.(0);
  Alcotest.(check int) "bin1" 2 counts.(1);
  Alcotest.(check int) "bin9 (incl clamp)" 2 counts.(9);
  Alcotest.(check int) "total" 6 (Sim.Stats.Histogram.total h);
  Alcotest.(check int) "edges" 11 (Array.length (Sim.Stats.Histogram.bin_edges h))

let test_sample_single () =
  let s = Sim.Stats.Sample.create () in
  Sim.Stats.Sample.add s 7.5;
  check_float "median" 7.5 (Sim.Stats.Sample.median s);
  check_float "p0" 7.5 (Sim.Stats.Sample.percentile s 0.0);
  check_float "p50" 7.5 (Sim.Stats.Sample.percentile s 50.0);
  check_float "p100" 7.5 (Sim.Stats.Sample.percentile s 100.0)

let test_histogram_clamp_boundaries () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  (* Exactly lo -> first bin; exactly hi -> last bin; an interior bin
     edge goes to the bin it opens. *)
  List.iter (Sim.Stats.Histogram.add h) [ 0.0; 10.0; 5.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "lo in bin0" 1 counts.(0);
  Alcotest.(check int) "hi in last bin" 1 counts.(9);
  Alcotest.(check int) "edge opens bin5" 1 counts.(5);
  (* Clamped outliers join the edge bins. *)
  List.iter (Sim.Stats.Histogram.add h) [ -1e9; 1e9 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "below lo clamps to bin0" 2 counts.(0);
  Alcotest.(check int) "above hi clamps to last" 2 counts.(9)

let test_ratio () =
  check_float "basic" 50.0 (Sim.Stats.ratio 1 2);
  check_float "zero denominator" 0.0 (Sim.Stats.ratio 5 0)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun l ->
      let r = Sim.Stats.Running.create () in
      List.iter (Sim.Stats.Running.add r) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      Float.abs (Sim.Stats.Running.mean r -. naive)
      < 1e-6 *. (1.0 +. Float.abs naive))

(* ---------- Trace ---------- *)

let ev_a = Sim.Event.Fault { component = Sim.Event.Link 3; up = false }

let ev_b =
  Sim.Event.Chan_transition
    { node = 1; channel = 64; from_ = Sim.Event.P; to_ = Sim.Event.U; cause = "detect" }

let test_trace_events_disabled_noop () =
  let t = Sim.Trace.create () in
  (* Off by default: nothing is recorded until [set_events]. *)
  Sim.Trace.record_event t ~time:1.0 ev_a;
  Sim.Trace.record_rcc t ~time:1.0 ~link:0 ~op:Sim.Event.Send ~seq:0 ~bytes:8;
  Alcotest.(check int) "nothing recorded" 0 (Sim.Trace.event_count t);
  Alcotest.(check bool) "empty" true (Sim.Trace.events t = [])

let test_trace_events_capture () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_events t true;
  Sim.Trace.record_event t ~time:1.0 ev_a;
  Sim.Trace.record_event t ~time:2.0 ev_b;
  Alcotest.(check int) "two events" 2 (Sim.Trace.event_count t);
  match Sim.Trace.events t with
  | [ (t1, e1); (t2, e2) ] ->
    check_float "first time" 1.0 t1;
    check_float "second time" 2.0 t2;
    Alcotest.(check bool) "order kept" true (e1 = ev_a && e2 = ev_b)
  | _ -> Alcotest.fail "expected two events in order"

(* One event of every constructor, with RCC steps inside and outside the
   packed layout, reads back as recorded and in order. *)
let test_trace_roundtrip () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_events t true;
  let evs =
    [
      ev_a;
      ev_b;
      Sim.Event.Rcc { link = 7; op = Sim.Event.Ack; seq = 3; bytes = 8 };
      Sim.Event.Rcc { link = 1 lsl 16; op = Sim.Event.Drop; seq = -1; bytes = 8 };
      Sim.Event.Detector { node = 2; link = 5; signal = Sim.Event.Confirm };
      Sim.Event.Activation { node = 0; conn = 4; serial = 1; channel = 65 };
      Sim.Event.Rejoin_timer { node = 3; channel = 64; op = Sim.Event.Expired };
      Sim.Event.Mux { link = 9; backup = 65; op = Sim.Event.Register; pi = 2; psi = 1 };
      Sim.Event.Fault { component = Sim.Event.Node 6; up = true };
      Sim.Event.Lifecycle { conn = 4; op = Sim.Event.Depart; active = 10 };
    ]
  in
  List.iteri (fun i ev -> Sim.Trace.record_event t ~time:(float_of_int i) ev) evs;
  Alcotest.(check int) "count" (List.length evs) (Sim.Trace.event_count t);
  Alcotest.(check (list string)) "events"
    (List.mapi (fun i ev -> Printf.sprintf "%d %s" i (Sim.Event.to_string ev)) evs)
    (List.map
       (fun (time, ev) ->
         Printf.sprintf "%.0f %s" time (Sim.Event.to_string ev))
       (Sim.Trace.events t));
  Alcotest.(check bool) "structurally equal" true
    (Sim.Trace.events t = List.mapi (fun i ev -> (float_of_int i, ev)) evs)

let test_trace_events_growth () =
  (* Fill several 1024-entry chunks; nothing is dropped. *)
  let t = Sim.Trace.create () in
  Sim.Trace.set_events t true;
  for i = 1 to 3000 do
    Sim.Trace.record_event t ~time:(float_of_int i)
      (Sim.Event.Rcc { link = i; op = Sim.Event.Send; seq = i; bytes = 64 })
  done;
  Alcotest.(check int) "all kept" 3000 (Sim.Trace.event_count t);
  match List.rev (Sim.Trace.events t) with
  | (tl, Sim.Event.Rcc { link; _ }) :: _ ->
    check_float "last time" 3000.0 tl;
    Alcotest.(check int) "last link" 3000 link
  | _ -> Alcotest.fail "expected Rcc event last"

(* ---------- typed-event store vs the boxed reference ---------- *)

type trace_op =
  | Record of float * Sim.Event.t  (** [record_event] *)
  | Step of float * int * Sim.Event.rcc_op * int * int
      (** [record_rcc] with link, op, seq, bytes *)
  | Burst of int  (** that many in-layout [record_rcc] calls *)
  | Enable of bool
  | Read  (** compare the whole store mid-sequence *)

let rcc_ops = [| Sim.Event.Send; Retransmit; Deliver; Ack; Drop |]

(* Ints on both sides of every power of two from 2^15 to 2^32, which
   spans the packed RCC layout (16-bit link and bytes, 27-bit seq, 62
   bits in all) and 31 bits; the ends of the int range; negatives. *)
let edge_ints =
  [ 0; 1; max_int; min_int; -1; -65536 ]
  @ List.concat_map (fun k -> [ (1 lsl k) - 1; 1 lsl k ]) (List.init 18 (( + ) 15))

let gen_field =
  QCheck.Gen.(frequency [ (3, int_range 0 300); (2, oneofl edge_ints) ])

let gen_time = QCheck.Gen.(map (fun n -> 0.001 *. float_of_int n) (int_range 0 100_000))

let gen_event =
  let open QCheck.Gen in
  let state = oneofl [ Sim.Event.N; P; B; U ] in
  oneof
    [
      map2
        (fun (node, channel) (from_, to_, cause) ->
          Sim.Event.Chan_transition { node; channel; from_; to_; cause })
        (pair gen_field gen_field)
        (triple state state (oneofl [ "detect"; "report"; "rejoin"; "" ]));
      map2
        (fun (link, seq, bytes) op -> Sim.Event.Rcc { link; op; seq; bytes })
        (triple gen_field gen_field gen_field)
        (oneofa rcc_ops);
      map2
        (fun (node, channel) op -> Sim.Event.Rejoin_timer { node; channel; op })
        (pair gen_field gen_field)
        (oneofl [ Sim.Event.Started; Cancelled; Expired ]);
      map
        (fun (v, up) ->
          Sim.Event.Fault { component = Sim.Event.Link v; up })
        (pair gen_field bool);
    ]

let gen_trace_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map2 (fun t ev -> Record (t, ev)) gen_time gen_event);
      ( 6,
        map3
          (fun t (link, seq, bytes) op -> Step (t, link, op, seq, bytes))
          gen_time
          (triple gen_field gen_field gen_field)
          (oneofa rcc_ops) );
      (1, map (fun n -> Burst n) (int_range 1 1500));
      (1, map (fun b -> Enable b) (frequency [ (4, return true); (1, return false) ]));
      (1, return Read);
    ]

let pp_trace_op = function
  | Record (t, ev) -> Printf.sprintf "record %g %s" t (Sim.Event.to_string ev)
  | Step (t, link, op, seq, bytes) ->
    Printf.sprintf "rcc %g link=%d %s seq=%d bytes=%d" t link
      (Sim.Event.rcc_op_to_string op) seq bytes
  | Burst n -> Printf.sprintf "burst %d" n
  | Enable b -> Printf.sprintf "enable %b" b
  | Read -> "read"

let arb_trace_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_trace_op l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 120) gen_trace_op)

let prop_trace_reference =
  QCheck.Test.make ~name:"typed events = boxed reference" ~count:200
    arb_trace_ops (fun ops ->
      let t = Sim.Trace.create () and r = Trace_ref.create () in
      let same () =
        Sim.Trace.event_count t = Trace_ref.event_count r
        && Sim.Trace.events t = Trace_ref.events r
      in
      let apply = function
        | Record (time, ev) ->
          Sim.Trace.record_event t ~time ev;
          Trace_ref.record_event r ~time ev
        | Step (time, link, op, seq, bytes) ->
          Sim.Trace.record_rcc t ~time ~link ~op ~seq ~bytes;
          Trace_ref.record_rcc r ~time ~link ~op ~seq ~bytes
        | Burst n ->
          for i = 1 to n do
            let time = float_of_int i and op = rcc_ops.(i mod 5) in
            Sim.Trace.record_rcc t ~time ~link:(i land 255) ~op ~seq:i ~bytes:64;
            Trace_ref.record_rcc r ~time ~link:(i land 255) ~op ~seq:i ~bytes:64
          done
        | Enable on ->
          Sim.Trace.set_events t on;
          Trace_ref.set_events r on
        | Read -> ()
      in
      List.for_all
        (fun op ->
          apply op;
          (match op with Read -> same () | _ -> true)
          && Sim.Trace.event_count t = Trace_ref.event_count r)
        ops
      && same ())

(* Once the first chunk exists, in-layout RCC steps allocate nothing on
   the minor heap but the chunk directory's rare doubling: chunks
   themselves are too large for it. *)
let test_trace_rcc_minor_words () =
  let t = Sim.Trace.create () in
  Sim.Trace.set_events t true;
  Sim.Trace.record_rcc t ~time:1.0 ~link:0 ~op:Sim.Event.Send ~seq:0 ~bytes:8;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    Sim.Trace.record_rcc t ~time:2.0 ~link:(i land 255) ~op:Sim.Event.Deliver
      ~seq:i ~bytes:512
  done;
  let words = Gc.minor_words () -. before in
  (* 1024-entry chunks, so about ten new ones; allow 64 words each. *)
  let bound = 64.0 *. float_of_int ((n / 1024) + 1) in
  if words > bound then
    Alcotest.failf "%.0f minor words for %d RCC steps (bound %.0f)" words n
      bound;
  Alcotest.(check int) "all kept" (n + 1) (Sim.Trace.event_count t)

(* Two domains that miss one slot together build one value: each waits
   at a barrier, then asks for the same key; the build spins long enough
   that the second miss arrives while the first build runs.  A stale
   value ([current] refuses it) is built again, once, and a hit builds
   nothing. *)
let test_memo_builds_once () =
  let memo = Sim.Memo.create () and key = ref 0 in
  let builds = Atomic.make 0 and ready = Atomic.make 0 in
  let get ~gen =
    Sim.Memo.find_or_build memo key
      ~current:(fun (g, _) -> g = gen)
      (fun () ->
        Atomic.incr builds;
        let t0 = Sys.time () in
        while Sys.time () -. t0 < 0.05 do
          Domain.cpu_relax ()
        done;
        (gen, Atomic.get builds))
  in
  let racer gen () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    get ~gen
  in
  let round gen =
    let d = Domain.spawn (racer gen) in
    let mine = racer gen () in
    let theirs = Domain.join d in
    Atomic.set ready 0;
    Alcotest.(check bool) "both see one value" true (mine == theirs)
  in
  round 0;
  Alcotest.(check int) "one build for two misses" 1 (Atomic.get builds);
  ignore (get ~gen:0);
  Alcotest.(check int) "a hit builds nothing" 1 (Atomic.get builds);
  round 1;
  Alcotest.(check int) "a stale value is built again once" 2
    (Atomic.get builds)

(* A memo over [ref] keys whose values count their builds. *)
let counting_memo () =
  let memo = Sim.Memo.create () and builds = ref 0 in
  let get ?(current = fun _ -> true) key =
    Sim.Memo.find_or_build memo key ~current (fun () ->
        incr builds;
        ref !key)
  in
  (get, builds)

(* [f] gets a finaliser flag to attach to the values it makes; four full
   majors later, whether those values were freed. *)
let freed_after f =
  let freed = ref false in
  f (fun v -> Gc.finalise_last (fun () -> freed := true) v);
  for _ = 1 to 4 do
    Gc.full_major ()
  done;
  !freed

let test_memo_live_keys_hit () =
  let get, builds = counting_memo () in
  let a = ref 1 and b = ref 2 in
  let va = get a and vb = get b in
  for _ = 1 to 3 do
    Alcotest.(check bool) "a hits" true (get a == va);
    Alcotest.(check bool) "b hits" true (get b == vb)
  done;
  Alcotest.(check int) "one build per key" 2 !builds

let test_memo_dead_key_frees () =
  let get, builds = counting_memo () in
  let freed =
    freed_after (fun watch ->
        let[@inline never] look_up () = watch (get (ref 0)) in
        look_up ())
  in
  Alcotest.(check bool) "value freed with its key" true freed;
  (* The memo itself stays alive until here. *)
  ignore (get (ref 1));
  Alcotest.(check int) "one build per key" 2 !builds

let test_memo_rebuild_replaces () =
  let get, builds = counting_memo () in
  let key = ref 0 in
  let freed =
    freed_after (fun watch ->
        let[@inline never] first () = watch (get key) in
        first ();
        ignore (get ~current:(fun _ -> false) key))
  in
  Alcotest.(check bool) "stale value freed while its key lives" true freed;
  Alcotest.(check int) "rebuilt once" 2 !builds;
  ignore (get key);
  Alcotest.(check int) "the new entry hits" 2 !builds

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int zero bound" `Quick test_prng_int_rejects_zero;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independence;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "sample of a negative count" `Quick
            test_prng_sample_negative;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
        ] );
      qsuite "heap-props" [ prop_heap_sorts ];
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel idempotent" `Quick
            test_engine_cancel_idempotent;
          Alcotest.test_case "past rejected" `Quick
            test_engine_schedule_in_past_rejected;
          Alcotest.test_case "NaN rejected, +inf legal" `Quick
            test_engine_nan_rejected;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "cancel keeps order, stale handle" `Quick
            test_engine_cancel_keeps_order;
          Alcotest.test_case "due_now" `Quick test_engine_due_now;
        ] );
      qsuite "engine-model" [ prop_engine_model ];
      ( "stats",
        [
          Alcotest.test_case "running" `Quick test_running_stats;
          Alcotest.test_case "merge" `Quick test_running_merge;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "single sample" `Quick test_sample_single;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram clamp boundaries" `Quick
            test_histogram_clamp_boundaries;
          Alcotest.test_case "ratio" `Quick test_ratio;
        ] );
      qsuite "stats-props" [ prop_welford_matches_naive ];
      ( "memo",
        [
          Alcotest.test_case "domains that miss together build once" `Quick
            test_memo_builds_once;
          Alcotest.test_case "live keys all hit" `Quick test_memo_live_keys_hit;
          Alcotest.test_case "a dead key frees its value" `Quick
            test_memo_dead_key_frees;
          Alcotest.test_case "a rebuild replaces its key's entry" `Quick
            test_memo_rebuild_replaces;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "events disabled no-op" `Quick
            test_trace_events_disabled_noop;
          Alcotest.test_case "events capture" `Quick test_trace_events_capture;
          Alcotest.test_case "events growth" `Quick test_trace_events_growth;
          Alcotest.test_case "RCC steps allocate no minor words" `Quick
            test_trace_rcc_minor_words;
          QCheck_alcotest.to_alcotest prop_trace_reference;
        ] );
    ]
