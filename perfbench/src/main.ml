(* The benchmark's entry point: one workload per process.

     main.exe --workload rfast64|recover8|churn16 [--seed N] [--seconds S]
              [--trace 0|1] [--domains N] [--record]

   The last line of standard output is the result: a JSON object with
   the keys correct, attempted, failed and metrics.  Bad arguments exit
   with code 2. *)

open Perfbench

let usage =
  "main.exe --workload rfast64|recover8|churn16 [--seed N] [--seconds S] \
   [--trace 0|1] [--domains N] [--record]"

let workloads =
  [ ("rfast64", Rfast64.run); ("recover8", Recover8.run); ("churn16", Churn16.run) ]

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"model name" line -> (
        match String.index_opt line ':' with
        | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | None -> "unknown")
      | _ -> scan ()
      | exception End_of_file -> "unknown"
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured; JSON has no NaN or infinity. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref Harness.default_seed in
  let seconds = ref 10.0 and trace = ref 0 and domains = ref 1 in
  let record = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME rfast64, recover8 or churn16");
      ("--seed", Arg.Set_int seed, "N input seed (recorded results cover 1)");
      ("--seconds", Arg.Set_float seconds, "S how long the ops are timed");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end ones");
      ("--domains", Arg.Set_int domains, "N domain count, at most nproc (default 1)");
      ("--record", Arg.Set record, " run every recorded op and write the expected results");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with
  | Arg.Bad msg -> die (List.hd (String.split_on_char '\n' msg))
  | Arg.Help _ -> print_string (Arg.usage_string specs usage); exit 0);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  let nproc = Domain.recommended_domain_count () in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !domains < 1 || !domains > nproc then
    die (Printf.sprintf "--domains must be between 1 and nproc (%d)" nproc);
  if not (!seconds > 0.0) then die "--seconds must be positive";
  if !record && !seed <> Harness.default_seed then
    die (Printf.sprintf "--record covers seed %d only" Harness.default_seed);
  if not (Sys.file_exists Harness.expected_dir) then
    die (Printf.sprintf "no recorded results at %s" Harness.expected_dir);
  Sim.Pool.set_jobs !domains;
  let cfg =
    {
      Harness.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      record = !record;
    }
  in
  let r = run cfg in
  let ops = Array.length r.phase.op_ns in
  let metrics = if cfg.trace then r.layers else Harness.end_to_end r in
  List.iter (fun p -> prerr_endline ("perfbench: check failed: " ^ p)) r.problems;
  let fingerprint =
    [
      ("workload", json_string !workload);
      ("nproc", string_of_int nproc);
      ("cpu", json_string (cpu_model ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("domains", string_of_int !domains);
      ("seed", string_of_int !seed);
      ("trace", string_of_int !trace);
      ("ops", string_of_int ops);
      ("seconds", json_number !seconds);
      ("setup_s", "[" ^ String.concat ", " (List.map json_number r.setup_s) ^ "]");
    ]
    @ List.map (fun (k, v) -> (k, json_string v)) r.facts
  in
  Printf.printf "fingerprint {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fingerprint));
  List.iter
    (fun (m : Layers.metric) -> Printf.printf "%-34s %14.4f %s\n" m.name m.value m.unit)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0 && r.problems = [])
    ops r.failed
    (String.concat ", "
       (List.map
          (fun (m : Layers.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_number m.value) (json_string m.unit))
          metrics))
