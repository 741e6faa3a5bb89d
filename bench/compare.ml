(* Benchmark comparison gate.

   Usage: compare BASELINE.json FRESH.json [--json FILE]

   Diffs a fresh bcp-bench/v1 results file against a committed baseline:
   every table in the baseline must appear in the fresh run with
   identical columns, row labels and cells (the cells are the rendered
   strings of the text tables, so this is the same check as a byte-diff
   of the rendered output).  Any mismatch fails the gate.  A baseline
   with no tables checks nothing, so it is an error, not a pass.

   [--json FILE] additionally writes the complete drift set as a
   bcp-compare/v1 document: one record per failure with the table, row,
   column, both values and a failure kind, so CI tooling can triage
   drift without scraping FAIL lines.

   Exit codes: 0 ok, 1 drift, 2 usage / IO / parse error or an empty
   baseline. *)

let errors = ref 0
let findings : Eval.Json.t list ref = ref []

(* Structured twin of a FAIL line; [kind] names the check that fired. *)
let note ~kind ?(table = "") ?(row = "") ?(column = "") ~baseline ~fresh () =
  let s v = Eval.Json.String v in
  findings :=
    Eval.Json.Obj
      [
        ("kind", s kind);
        ("table", s table);
        ("row", s row);
        ("column", s column);
        ("baseline", s baseline);
        ("fresh", s fresh);
      ]
    :: !findings

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.printf "FAIL %s\n" msg)
    fmt

let usage () =
  prerr_endline
    "usage: compare BASELINE.json FRESH.json [--json FILE]";
  exit 2

let load path =
  let content =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "compare: cannot read %s: %s\n" path msg;
      exit 2
  in
  match Eval.Json.of_string content with
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "compare: %s: %s\n" path msg;
    exit 2

let str_member k j =
  Option.bind (Eval.Json.member k j) Eval.Json.to_string_opt

let list_member k j =
  match Eval.Json.member k j with Some v -> Eval.Json.to_list v | None -> []

let table_title t = Option.value ~default:"<untitled>" (str_member "title" t)

(* Rows as (label, cells) pairs; columns as a string list. *)
let strings j = List.filter_map Eval.Json.to_string_opt (Eval.Json.to_list j)

let table_columns t =
  match Eval.Json.member "columns" t with Some c -> strings c | None -> []

let table_rows t =
  List.map
    (fun r ->
      ( Option.value ~default:"" (str_member "label" r),
        match Eval.Json.member "cells" r with
        | Some c -> strings c
        | None -> [] ))
    (list_member "rows" t)

(* Every drifted cell gets its own FAIL line (naming the column and the
   offending baseline file), and comparison continues past the first
   mismatch so one run reports the complete drift set. *)
let compare_table ~baseline_path ~title base fresh =
  let bc = table_columns base and fc = table_columns fresh in
  if bc <> fc then begin
    fail "%s: columns differ (baseline %s)\n  baseline: %s\n  fresh:    %s"
      title baseline_path (String.concat " | " bc) (String.concat " | " fc);
    note ~kind:"columns" ~table:title
      ~baseline:(String.concat " | " bc)
      ~fresh:(String.concat " | " fc) ()
  end;
  let column i =
    match List.nth_opt bc i with
    | Some c -> c
    | None -> Printf.sprintf "column %d" i
  in
  let br = table_rows base and fr = table_rows fresh in
  if List.length br <> List.length fr then begin
    fail "%s: %d rows in baseline, %d in fresh (baseline %s)" title
      (List.length br) (List.length fr) baseline_path;
    note ~kind:"row-count" ~table:title
      ~baseline:(string_of_int (List.length br))
      ~fresh:(string_of_int (List.length fr))
      ()
  end
  else
    List.iter2
      (fun (bl, bcells) (fl, fcells) ->
        if bl <> fl then begin
          fail "%s: row label %S became %S (baseline %s)" title bl fl
            baseline_path;
          note ~kind:"row-label" ~table:title ~baseline:bl ~fresh:fl ()
        end;
        let row = if bl = fl then bl else Printf.sprintf "%s->%s" bl fl in
        if List.length bcells <> List.length fcells then begin
          fail "%s / %s: %d cells in baseline, %d in fresh (baseline %s)" title
            row (List.length bcells) (List.length fcells) baseline_path;
          note ~kind:"cell-count" ~table:title ~row
            ~baseline:(string_of_int (List.length bcells))
            ~fresh:(string_of_int (List.length fcells))
            ()
        end
        else
          List.iteri
            (fun i (b, f) ->
              if b <> f then begin
                fail "%s / %s / %s: %S became %S (baseline %s)" title row
                  (column i) b f baseline_path;
                note ~kind:"cell" ~table:title ~row ~column:(column i)
                  ~baseline:b ~fresh:f ()
              end)
            (List.combine bcells fcells))
      br fr

let () =
  let json_out = ref None in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> usage ()
    | a :: rest ->
      positional := a :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match List.rev !positional with [ b; f ] -> (b, f) | _ -> usage ()
  in
  let base = load baseline_path and fresh = load fresh_path in
  (match (str_member "schema" base, str_member "schema" fresh) with
  | Some "bcp-bench/v1", Some "bcp-bench/v1" -> ()
  | b, f ->
    Printf.eprintf "compare: expected schema bcp-bench/v1 (got %s vs %s)\n"
      (Option.value ~default:"<none>" b)
      (Option.value ~default:"<none>" f);
    exit 2);
  let fresh_tables = list_member "tables" fresh in
  let find_fresh title =
    List.find_opt (fun t -> table_title t = title) fresh_tables
  in
  let base_tables = list_member "tables" base in
  if base_tables = [] then begin
    Printf.eprintf "compare: %s: baseline has no tables, nothing to check\n"
      baseline_path;
    exit 2
  end;
  List.iter
    (fun bt ->
      let title = table_title bt in
      match find_fresh title with
      | None ->
        fail "%s: missing from fresh results (baseline %s)" title baseline_path;
        note ~kind:"missing-table" ~table:title ~baseline:title ~fresh:"" ()
      | Some ft -> compare_table ~baseline_path ~title bt ft)
    base_tables;
  (match !json_out with
  | None -> ()
  | Some path ->
    let doc =
      Eval.Json.Obj
        [
          ("schema", Eval.Json.String "bcp-compare/v1");
          ("baseline", Eval.Json.String baseline_path);
          ("fresh", Eval.Json.String fresh_path);
          ("tables", Eval.Json.Int (List.length base_tables));
          ("ok", Eval.Json.Bool (!errors = 0));
          ("failures", Eval.Json.List (List.rev !findings));
        ]
    in
    Eval.Json.write_file ~prog:"compare" path (fun oc ->
        output_string oc (Eval.Json.to_string ~indent:2 doc);
        output_char oc '\n'));
  if !errors > 0 then begin
    Printf.printf "\n%d failure(s) vs baseline %s\n" !errors baseline_path;
    exit 1
  end
  else
    Printf.printf "OK: %d table(s) match baseline %s\n"
      (List.length base_tables) baseline_path
