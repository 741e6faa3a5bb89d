(** Plain-text table rendering for experiment output (the rows printed by
    the benchmark harness and the CLI mirror the paper's tables). *)

type t

val make : title:string -> columns:string list -> t
(** First column is the row label. *)

val add_row : t -> label:string -> cells:string list -> unit
(** @raise Invalid_argument if the cell count does not match the
    column count. *)

val add_float_row : t -> label:string -> float list -> unit
(** Cells rendered with ["%.2f"]. *)

val pct : float -> string
(** "97.27%%"-style rendering used across the tables. *)

val render : t -> string
val print : t -> unit
val to_csv : t -> string

val to_json : t -> Json.t
(** [{"title": ..., "columns": [...], "rows": [{"label", "cells"}]}] —
    cells stay the rendered strings of the text table, so a JSON report
    is byte-comparable across runs exactly like the rendered table. *)
