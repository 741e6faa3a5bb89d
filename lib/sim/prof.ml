(* Hierarchical span profiler.  All mutable accumulation lives in
   per-domain epoch-stamped DLS records (same discipline as the
   establishment cost scratch): a worker touching the profiler for the
   first time after a [reset] re-initialises its record and registers it
   under the registry mutex; the hot path (enter/leave/count) then runs
   lock-free on domain-local data.  [report] merges the registered
   records — it is only called from the main domain between parallel
   regions, when no worker has a span open. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "bcp_prof_monotonic_ns_byte" "bcp_prof_monotonic_ns"
[@@noalloc]

let now_ns () = Int64.to_float (monotonic_ns ())

type span_stat = {
  name : string;
  count : int;
  total_ns : float;
  self_ns : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

type raw_span = {
  span_name : string;
  domain : int;
  depth : int;
  start_ns : float;
  stop_ns : float;
}

type report = {
  wall_ns : float;
  spans : span_stat list;
  counters : (string * int) list;
  raw_spans : raw_span list;
  dropped_spans : int;
}

type agg = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_minor : float;
  mutable a_major : float;
  mutable a_minor_col : int;
  mutable a_major_col : int;
}

type frame = {
  fname : string;
  fstart : float;
  fminor : float;
  fmajor : float;
  fminor_col : int;
  fmajor_col : int;
  mutable child_ns : float;
}

type dstate = {
  mutable epoch : int;
  mutable dom : int;
  mutable stack : frame list;
  aggs : (string, agg) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable cvals : int array; (* counter handle -> value *)
  mutable raw : raw_span list; (* newest first; reversed at report time *)
  mutable raw_n : int;
  mutable dropped : int;
}

(* Raw spans feed the Chrome timeline; aggregates are unbounded, so
   capping the raw buffer only trims the browsable detail of very long
   runs (the drop count is reported). *)
let raw_cap = 32768

let on = Atomic.make false
let epoch = Atomic.make 0
let registry_mutex = Mutex.create ()
let registry : dstate list ref = ref []
let origin = ref (-1.0) (* < 0: epoch not yet anchored by [enable] *)

let enabled () = Atomic.get on

let enable () =
  Mutex.lock registry_mutex;
  if !origin < 0.0 then origin := now_ns ();
  Mutex.unlock registry_mutex;
  Atomic.set on true

let disable () = Atomic.set on false

let reset () =
  Mutex.lock registry_mutex;
  registry := [];
  origin := if Atomic.get on then now_ns () else -1.0;
  Mutex.unlock registry_mutex;
  Atomic.incr epoch

let key =
  Domain.DLS.new_key (fun () ->
      {
        epoch = -1;
        dom = 0;
        stack = [];
        aggs = Hashtbl.create 32;
        counts = Hashtbl.create 32;
        cvals = [||];
        raw = [];
        raw_n = 0;
        dropped = 0;
      })

let state () =
  let st = Domain.DLS.get key in
  let e = Atomic.get epoch in
  if st.epoch <> e then begin
    st.epoch <- e;
    st.dom <- (Domain.self () :> int);
    st.stack <- [];
    Hashtbl.reset st.aggs;
    Hashtbl.reset st.counts;
    Array.fill st.cvals 0 (Array.length st.cvals) 0;
    st.raw <- [];
    st.raw_n <- 0;
    st.dropped <- 0;
    Mutex.lock registry_mutex;
    registry := st :: !registry;
    Mutex.unlock registry_mutex
  end;
  st

let enter fname =
  if Atomic.get on then begin
    let st = state () in
    let g = Gc.quick_stat () in
    st.stack <-
      {
        fname;
        fstart = now_ns ();
        fminor = g.Gc.minor_words;
        fmajor = g.Gc.major_words;
        fminor_col = g.Gc.minor_collections;
        fmajor_col = g.Gc.major_collections;
        child_ns = 0.0;
      }
      :: st.stack
  end

let agg_of st name =
  match Hashtbl.find_opt st.aggs name with
  | Some a -> a
  | None ->
    let a =
      {
        a_count = 0;
        a_total = 0.0;
        a_self = 0.0;
        a_minor = 0.0;
        a_major = 0.0;
        a_minor_col = 0;
        a_major_col = 0;
      }
    in
    Hashtbl.add st.aggs name a;
    a

let leave name =
  if Atomic.get on then begin
    let st = state () in
    match st.stack with
    | [] -> invalid_arg (Printf.sprintf "Prof.leave %S: no open span" name)
    | f :: rest ->
      if not (String.equal f.fname name) then
        invalid_arg
          (Printf.sprintf "Prof.leave %S: innermost open span is %S" name
             f.fname);
      let stop = now_ns () in
      let g = Gc.quick_stat () in
      let elapsed = stop -. f.fstart in
      st.stack <- rest;
      (match rest with
      | parent :: _ -> parent.child_ns <- parent.child_ns +. elapsed
      | [] -> ());
      let a = agg_of st name in
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. elapsed;
      a.a_self <- a.a_self +. (elapsed -. f.child_ns);
      a.a_minor <- a.a_minor +. (g.Gc.minor_words -. f.fminor);
      a.a_major <- a.a_major +. (g.Gc.major_words -. f.fmajor);
      a.a_minor_col <- a.a_minor_col + (g.Gc.minor_collections - f.fminor_col);
      a.a_major_col <- a.a_major_col + (g.Gc.major_collections - f.fmajor_col);
      if st.raw_n < raw_cap then begin
        st.raw <-
          {
            span_name = name;
            domain = st.dom;
            depth = List.length rest;
            start_ns = f.fstart;
            stop_ns = stop;
          }
          :: st.raw;
        st.raw_n <- st.raw_n + 1
      end
      else st.dropped <- st.dropped + 1
  end

let span name f =
  if not (Atomic.get on) then f ()
  else begin
    enter name;
    match f () with
    | v ->
      leave name;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave name;
      Printexc.raise_with_backtrace e bt
  end

let count ?(by = 1) name =
  if Atomic.get on then begin
    let st = state () in
    match Hashtbl.find_opt st.counts name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add st.counts name (ref by)
  end

(* Counter handles are dense ids into a name table that only grows,
   under the registry mutex. *)
type counter = int

let counter_names : string array ref = ref [||]

let counter name =
  Mutex.lock registry_mutex;
  let names = !counter_names in
  let rec find i =
    if i = Array.length names then begin
      counter_names := Array.append names [| name |];
      i
    end
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  let c = find 0 in
  Mutex.unlock registry_mutex;
  c

let incr ?(by = 1) c =
  if Atomic.get on then begin
    let st = state () in
    if c >= Array.length st.cvals then begin
      let grown = Array.make (c + 1) 0 in
      Array.blit st.cvals 0 grown 0 (Array.length st.cvals);
      st.cvals <- grown
    end;
    st.cvals.(c) <- st.cvals.(c) + by
  end

let depth () =
  if not (Atomic.get on) then 0 else List.length (state ()).stack

let report () =
  Mutex.lock registry_mutex;
  let states = !registry in
  let names = !counter_names in
  let t0 = !origin in
  Mutex.unlock registry_mutex;
  let wall_ns = if t0 < 0.0 then 0.0 else now_ns () -. t0 in
  let merged_aggs : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  let merged_counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let raw = ref [] in
  let dropped = ref 0 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name a ->
          match Hashtbl.find_opt merged_aggs name with
          | None ->
            Hashtbl.add merged_aggs name
              {
                a_count = a.a_count;
                a_total = a.a_total;
                a_self = a.a_self;
                a_minor = a.a_minor;
                a_major = a.a_major;
                a_minor_col = a.a_minor_col;
                a_major_col = a.a_major_col;
              }
          | Some m ->
            m.a_count <- m.a_count + a.a_count;
            m.a_total <- m.a_total +. a.a_total;
            m.a_self <- m.a_self +. a.a_self;
            m.a_minor <- m.a_minor +. a.a_minor;
            m.a_major <- m.a_major +. a.a_major;
            m.a_minor_col <- m.a_minor_col + a.a_minor_col;
            m.a_major_col <- m.a_major_col + a.a_major_col)
        st.aggs;
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt merged_counts name with
          | None -> Hashtbl.add merged_counts name (ref !r)
          | Some m -> m := !m + !r)
        st.counts;
      Array.iteri
        (fun c v ->
          if v <> 0 then
            match Hashtbl.find_opt merged_counts names.(c) with
            | None -> Hashtbl.add merged_counts names.(c) (ref v)
            | Some m -> m := !m + v)
        st.cvals;
      List.iter
        (fun (s : raw_span) ->
          raw :=
            {
              s with
              start_ns = s.start_ns -. t0;
              stop_ns = s.stop_ns -. t0;
            }
            :: !raw)
        st.raw;
      dropped := !dropped + st.dropped)
    states;
  let spans =
    Hashtbl.fold
      (fun name a acc ->
        {
          name;
          count = a.a_count;
          total_ns = a.a_total;
          self_ns = a.a_self;
          minor_words = a.a_minor;
          major_words = a.a_major;
          minor_collections = a.a_minor_col;
          major_collections = a.a_major_col;
        }
        :: acc)
      merged_aggs []
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  let counters =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) merged_counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let raw_spans =
    List.sort
      (fun (a : raw_span) b ->
        match Float.compare a.start_ns b.start_ns with
        | 0 -> (
          match Float.compare a.stop_ns b.stop_ns with
          | 0 -> compare (a.domain, a.depth) (b.domain, b.depth)
          | c -> c)
        | c -> c)
      !raw
  in
  { wall_ns; spans; counters; raw_spans; dropped_spans = !dropped }

let print_top ppf =
  let r = report () in
  let by_self =
    List.sort (fun a b -> Float.compare b.self_ns a.self_ns) r.spans
  in
  let shown = List.filteri (fun i _ -> i < 12) by_self in
  Format.fprintf ppf "@[<v>profile: %.1f ms wall, %d span names, %d counters@,"
    (r.wall_ns /. 1e6) (List.length r.spans) (List.length r.counters);
  Format.fprintf ppf "%-28s %10s %12s %12s %12s@," "span" "count" "self ms"
    "total ms" "minor kw";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-28s %10d %12.2f %12.2f %12.1f@," s.name s.count
        (s.self_ns /. 1e6) (s.total_ns /. 1e6) (s.minor_words /. 1e3))
    shown;
  let nonzero = List.filter (fun (_, v) -> v <> 0) r.counters in
  if nonzero <> [] then begin
    Format.fprintf ppf "%-44s %10s@," "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "%-44s %10d@," name v)
      nonzero
  end;
  Format.fprintf ppf "@]%!"
