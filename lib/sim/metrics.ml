type counter = { mutable count : int }
type gauge = { mutable value : float }
type timer = { sample : Stats.Sample.t; hist : Stats.Histogram.t }

type metric = C of counter | G of gauge | T of timer

type key = { name : string; labels : (string * string) list }

let compare_labels a b =
  compare (List.sort compare a) (List.sort compare b)

let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> compare_labels a.labels b.labels
  | c -> c

type t = { mutable entries : (key * metric) list }
(* Association list keyed by (name, labels).  Registries hold tens of
   metrics, and registration returns a direct handle.  Lookup sorts both
   label lists on every comparison, so a caller must resolve each handle
   once (per simulation, on first use) and keep it, never per
   observation. *)

let create () = { entries = [] }

let find t key =
  List.find_opt (fun (k, _) -> compare_key k key = 0) t.entries
  |> Option.map snd

let kind_name = function C _ -> "counter" | G _ -> "gauge" | T _ -> "timer"

let register t key m =
  match find t key with
  | None ->
    t.entries <- t.entries @ [ (key, m) ];
    m
  | Some existing ->
    if kind_name existing <> kind_name m then
      invalid_arg
        (Printf.sprintf "Metrics: %s re-registered as a %s (is a %s)" key.name
           (kind_name m) (kind_name existing));
    existing

let counter t ?(labels = []) name =
  match register t { name; labels } (C { count = 0 }) with
  | C c -> c
  | _ -> assert false

let gauge t name =
  match register t { name; labels = [] } (G { value = 0.0 }) with
  | G g -> g
  | _ -> assert false

(* Every timer has the same histogram shape, so merged histograms line
   up bin for bin. *)
let timer t name =
  match
    register t { name; labels = [] }
      (T
         {
           sample = Stats.Sample.create ();
           hist = Stats.Histogram.create ~lo:0.0 ~hi:0.1 ~bins:64;
         })
  with
  | T tm -> tm
  | _ -> assert false

let incr ?(by = 1) c = c.count <- c.count + by
let count c = c.count
let set g v = g.value <- v
let value g = g.value

let observe tm v =
  Stats.Sample.add tm.sample v;
  Stats.Histogram.add tm.hist v

let observations tm = Stats.Sample.count tm.sample

(* ---------- snapshots ---------- *)

type timer_stats = {
  observed : int;
  mean : float;
  p50 : float;
  p95 : float;
  vmax : float;
  lo : float;
  hi : float;
  buckets : int array;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Timer_v of timer_stats

type snapshot = (string * (string * string) list * value) list

let timer_stats tm =
  let n = Stats.Sample.count tm.sample in
  let edges = Stats.Histogram.bin_edges tm.hist in
  {
    observed = n;
    mean = (if n = 0 then 0.0 else Stats.Sample.mean tm.sample);
    p50 = (if n = 0 then 0.0 else Stats.Sample.percentile tm.sample 50.0);
    p95 = (if n = 0 then 0.0 else Stats.Sample.percentile tm.sample 95.0);
    vmax = (if n = 0 then 0.0 else Stats.Sample.max tm.sample);
    lo = edges.(0);
    hi = edges.(Array.length edges - 1);
    buckets = Stats.Histogram.counts tm.hist;
  }

let snapshot t =
  List.map
    (fun (k, m) ->
      let v =
        match m with
        | C c -> Counter_v c.count
        | G g -> Gauge_v g.value
        | T tm -> Timer_v (timer_stats tm)
      in
      (k.name, List.sort compare k.labels, v))
    (List.sort (fun (a, _) (b, _) -> compare_key a b) t.entries)

(* ---------- merging ---------- *)

let merge_into ~into src =
  List.iter
    (fun (k, m) ->
      match m with
      | C c ->
        let dst = counter into ~labels:k.labels k.name in
        incr ~by:c.count dst
      | G g ->
        (* Last writer wins; callers merge in a deterministic order. *)
        let dst = gauge into k.name in
        set dst g.value
      | T tm ->
        let dst = timer into k.name in
        (* One blit + one counts-add instead of re-observing every sample
           (which re-sorted and re-binned the whole series per merge). *)
        Stats.Sample.append ~into:dst.sample tm.sample;
        Stats.Histogram.merge_into ~into:dst.hist tm.hist)
    (List.sort (fun (a, _) (b, _) -> compare_key a b) src.entries)
