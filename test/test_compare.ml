(* Exit-code contract of the benchmark comparison gate, bench/compare.exe,
   run against the committed baselines: 0 when every cell matches, 1 with
   one FAIL line per drifted cell, 2 on unreadable input or a baseline
   that checks nothing.  The binaries and baselines are declared dune
   dependencies of the test. *)

(* Under `dune runtest` the cwd is _build/default/test; under a bare
   `dune exec` it is the workspace root. *)
let locate parts =
  let candidates =
    [
      List.fold_left Filename.concat ".." parts;
      List.fold_left Filename.concat "_build" ("default" :: parts);
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let compare_exe = locate [ "bench"; "compare.exe" ]
let bench_exe = locate [ "bench"; "main.exe" ]

let baselines =
  List.map
    (fun f -> locate [ f ])
    [
      "BENCH_baseline_4x4.json";
      "BENCH_baseline_churn.json";
      "BENCH_baseline_scaling.json";
    ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_temp ~suffix contents =
  let path = Filename.temp_file "bcp-compare" suffix in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

(* Exit code and stdout of [exe args]. *)
let run exe args =
  let out = Filename.temp_file "bcp-compare" ".out" in
  let code =
    Sys.command
      (String.concat " " (List.map Filename.quote (exe :: args))
      ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote Filename.null)
  in
  let stdout = read_file out in
  Sys.remove out;
  (code, stdout)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let require_binary exe =
  if not (Sys.file_exists exe) then
    Alcotest.fail (Printf.sprintf "missing binary %s" exe)

let test_self_match () =
  require_binary compare_exe;
  List.iter
    (fun b ->
      let code, out = run compare_exe [ b; b ] in
      Alcotest.(check int) (b ^ " vs itself exits 0") 0 code;
      Alcotest.(check bool) (b ^ " reports OK") true (contains ~sub:"OK: " out))
    baselines

let member k j = Option.get (Eval.Json.member k j)
let str j = Option.get (Eval.Json.to_string_opt j)

(* The 4x4 baseline with the first cell of its first table's first row
   replaced; returns the drifted document and the (table, row, column)
   it names. *)
let drift_first_cell doc =
  let replace_first f = function x :: rest -> f x :: rest | [] -> [] in
  let table = List.hd (Eval.Json.to_list (member "tables" doc)) in
  let row = List.hd (Eval.Json.to_list (member "rows" table)) in
  let names =
    ( str (member "title" table),
      str (member "label" row),
      str (List.hd (Eval.Json.to_list (member "columns" table))) )
  in
  let set k v = function
    | Eval.Json.Obj kvs ->
      Eval.Json.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
    | j -> j
  in
  let drift_row r =
    set "cells"
      (Eval.Json.List
         (replace_first
            (fun _ -> Eval.Json.String "drifted")
            (Eval.Json.to_list (member "cells" r))))
      r
  in
  let drift_table t =
    set "rows"
      (Eval.Json.List
         (replace_first drift_row (Eval.Json.to_list (member "rows" t))))
      t
  in
  let tables = Eval.Json.to_list (member "tables" doc) in
  (set "tables" (Eval.Json.List (replace_first drift_table tables)) doc, names)

let test_drifted_cell () =
  require_binary compare_exe;
  let base = List.hd baselines in
  let doc =
    match Eval.Json.of_string (read_file base) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let drifted, (title, row, column) = drift_first_cell doc in
  let fresh = write_temp ~suffix:".json" (Eval.Json.to_string drifted) in
  let code, out = run compare_exe [ base; fresh ] in
  Sys.remove fresh;
  Alcotest.(check int) "one drifted cell exits 1" 1 code;
  let fail_line = Printf.sprintf "FAIL %s / %s / %s: " title row column in
  Alcotest.(check bool)
    (Printf.sprintf "stdout names the cell (%S)" fail_line)
    true (contains ~sub:fail_line out);
  Alcotest.(check bool) "exactly one failure" true
    (contains ~sub:"\n1 failure(s) vs baseline" out)

let test_bad_input () =
  require_binary compare_exe;
  let base = List.hd baselines in
  let expect_2 what contents =
    let path = write_temp ~suffix:".json" contents in
    let as_baseline, _ = run compare_exe [ path; base ] in
    Sys.remove path;
    Alcotest.(check int) (what ^ " exits 2") 2 as_baseline
  in
  expect_2 "malformed baseline" "{\"schema\": \"bcp-bench/v1\", \"tables\": [";
  expect_2 "baseline without tables" "{\"schema\":\"bcp-bench/v1\"}";
  expect_2 "baseline with empty tables"
    "{\"schema\":\"bcp-bench/v1\",\"tables\":[]}";
  let garbage = write_temp ~suffix:".json" "not json" in
  let code, _ = run compare_exe [ base; garbage ] in
  Sys.remove garbage;
  Alcotest.(check int) "malformed fresh results exit 2" 2 code;
  let code, _ = run compare_exe [ base ] in
  Alcotest.(check int) "missing argument exits 2" 2 code

(* A file under a directory that does not exist. *)
let unwritable =
  List.fold_left Filename.concat "no-such-dir" [ "for-bench"; "out.json" ]

let test_unwritable_json () =
  require_binary compare_exe;
  require_binary bench_exe;
  let base = List.hd baselines in
  let code, _ = run compare_exe [ base; base; "--json"; unwritable ] in
  Alcotest.(check int) "compare: unwritable --json exits 2" 2 code;
  let code, out = run bench_exe [ "--part2-only"; "--json"; unwritable ] in
  Alcotest.(check int) "bench: unwritable --json exits 2" 2 code;
  Alcotest.(check string) "bench fails before running the suite" "" out

let () =
  Alcotest.run "compare"
    [
      ( "gate",
        [
          Alcotest.test_case "baseline vs itself" `Quick test_self_match;
          Alcotest.test_case "drifted cell" `Quick test_drifted_cell;
          Alcotest.test_case "malformed or empty input" `Quick test_bad_input;
          Alcotest.test_case "unwritable --json" `Quick test_unwritable_json;
        ] );
    ]
