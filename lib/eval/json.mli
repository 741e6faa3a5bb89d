(** Minimal JSON values, printing and parsing.

    The machine-readable results mode ([--json] on the benchmark harness
    and the CLI) and the benchmark comparison gate only need a small,
    dependency-free subset of JSON: objects, arrays, strings, numbers,
    booleans and null.  Numbers are held as floats ([Int] prints without
    a decimal point); strings are UTF-8 passed through verbatim with the
    mandatory escapes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render [t].  With [indent] (spaces per level) the output is
    pretty-printed with one object member / array element per line;
    without it the output is compact.  Deterministic: object members
    print in the order given. *)

val of_string : string -> (t, string) result
(** Parse a JSON document.  Rejects trailing garbage.  Errors carry a
    byte offset and a short description. *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], [None] otherwise
    (including on non-objects). *)

val to_float_opt : t -> float option
(** Numeric value of [Int] or [Float]. *)

val to_string_opt : t -> string option
(** Payload of [String]. *)

val to_list : t -> t list
(** Elements of [List], [[]] on anything else. *)

(** {2 File output}

    Shared by every tool that writes results ([bcp_sim], the benchmark
    harness and its comparison gate), so an unwritable path is one clean
    error everywhere. *)

val or_cannot_write : prog:string -> string -> (unit -> 'a) -> 'a
(** [or_cannot_write ~prog path f] runs [f]; a [Sys_error] it raises
    prints [PROG: cannot write PATH: REASON] on stderr and exits with
    code 2 instead of escaping as an uncaught exception. *)

val write_file : prog:string -> string -> (out_channel -> unit) -> unit
(** Create or truncate [path] and fill it with [write], under
    {!or_cannot_write}. *)
