type t = {
  title : string;
  columns : string list;
  mutable rows : (string * string list) list; (* newest first *)
}

let make ~title ~columns = { title; columns; rows = [] }

let add_row t ~label ~cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Report.add_row: %d cells for %d columns"
         (List.length cells) (List.length t.columns));
  t.rows <- (label, cells) :: t.rows

let add_float_row t ~label values =
  add_row t ~label ~cells:(List.map (Printf.sprintf "%.2f") values)

let pct v = Printf.sprintf "%.2f%%" v

let render t =
  let rows = List.rev t.rows in
  let header = "" :: t.columns in
  let all = header :: List.map (fun (l, cs) -> l :: cs) rows in
  let ncols = List.length header in
  let width c =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row c)))
      0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad cell (List.nth widths i)))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter (fun (l, cs) -> emit_row (l :: cs)) rows;
  Buffer.contents buf

let print t = print_string (render t ^ "\n")

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_json t =
  Json.Obj
    [
      ("title", Json.String t.title);
      ("columns", Json.List (List.map (fun c -> Json.String c) t.columns));
      ( "rows",
        Json.List
          (List.map
             (fun (label, cells) ->
               Json.Obj
                 [
                   ("label", Json.String label);
                   ( "cells",
                     Json.List (List.map (fun c -> Json.String c) cells) );
                 ])
             (List.rev t.rows)) );
    ]

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape ("" :: t.columns)));
  Buffer.add_char buf '\n';
  List.iter
    (fun (l, cs) ->
      Buffer.add_string buf (String.concat "," (List.map csv_escape (l :: cs)));
      Buffer.add_char buf '\n')
    (List.rev t.rows);
  Buffer.contents buf
