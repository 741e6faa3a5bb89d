(* Self-tests of the benchmark:
   - churn16's lifecycle loop counts what [Eval.Churn.run] counts;
   - traced and untraced runs give identical results on every workload
     (each run re-executes its first ops, or for churn16 the whole
     stream through [Eval.Churn.run], in the other tracing mode and
     fails on any difference);
   - both runs report exactly the metrics BENCHMARK.json declares;
   - the scenario order keeps the link/node mix in every prefix. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* (name, unit) of every metric BENCHMARK.json declares under [key]. *)
let declared key =
  let text = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let field k m =
    Option.value ~default:"" (Option.bind (Eval.Json.member k m) Eval.Json.to_string_opt)
  in
  match Result.map (Eval.Json.member key) (Eval.Json.of_string text) with
  | Ok (Some ms) -> List.map (fun m -> (field "name" m, field "unit" m)) (Eval.Json.to_list ms)
  | Ok None | Error _ -> failwith ("BENCHMARK.json: no " ^ key)

let churn_matches_reference seed =
  let c = Churn16.build ~seed () in
  for _ = 1 to 3000 do
    ignore (Ops.step c)
  done;
  let o = Churn16.reference ~seed ~events:(Churn16.warmup + 3000) in
  check
    (Printf.sprintf "churn16 loop = Eval.Churn.run (seed %d, %s)" seed (Churn16.reference_counts o))
    (Churn16.loop_counts c = Churn16.reference_counts o)

let modes_agree (name, run) seed =
  List.iter
    (fun trace ->
      let (r : Harness.result) =
        run
          {
            Harness.seed;
            seconds = 0.5;
            trace;
            record = false;
          }
      in
      let metrics = if trace then r.layers else Harness.end_to_end r in
      check
        (Printf.sprintf "%s trace %b reports the declared metrics" name trace)
        (List.map (fun (m : Layers.metric) -> (m.name, m.unit)) metrics
        = declared (if trace then "per_layer" else "end_to_end"));
      List.iter (fun p -> Printf.printf "     %s\n" p) r.problems;
      check
        (Printf.sprintf "%s seed %d trace %b: %d ops, 0 failed" name seed trace
           (Array.length r.phase.op_ns))
        (r.failed = 0 && r.problems = []))
    [ false; true ]

let stratified () =
  let order = Ops.stratified_order ~seed:3 ~links:256 ~nodes:64 in
  let sorted = Array.copy order in
  Array.sort compare sorted;
  let nodes_in k = Array.fold_left (fun n i -> if i >= 256 then n + 1 else n) 0 (Array.sub order 0 k) in
  check "stratified order is a permutation keeping the mix in every prefix"
    (sorted = Array.init 320 Fun.id
    && List.for_all (fun k -> abs ((5 * nodes_in k) - k) <= 5) (List.init 321 Fun.id))

let () =
  stratified ();
  List.iter churn_matches_reference [ 2; 3 ];
  List.iter
    (fun w -> modes_agree w 5)
    [ ("churn16", Churn16.run); ("recover8", Recover8.run); ("rfast64", Rfast64.run) ];
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
