(** Fast-recovery-rate experiments: Tables 1, 2 and 3.

    Failure models (Section 7.2): every single link failure, every single
    node failure, and double node failures (all pairs by default,
    optionally sampled).  R_fast aggregates recoveries over all scenarios
    of a model. *)

type model =
  | Single_link
  | Single_node
  | Double_node of int option  (** [Some n] = sample n pairs; [None] = all *)

val model_label : model -> string

type measurement = {
  label : string;
  scenarios : int;
  affected : int;  (** failed primaries considered, summed over scenarios *)
  recovered : int;
  mux_failures : int;
  no_backup : int;
  excluded : int;
  per_degree : (int * (int * int)) list;  (** degree -> (affected, recovered) *)
}

val r_fast : measurement -> float
val r_fast_deg : measurement -> int -> float
(** 100 when no connection of that degree was affected. *)

val measure :
  ?seed:int ->
  ?order:Bcp.Recovery.order ->
  Bcp.Netstate.t ->
  model ->
  measurement

(** Table 1: one establishment per multiplexing degree of
    {!Setup.paper_degrees}; rows = spare bandwidth + the paper's three
    failure models (single link, single node, double node). *)
val table_same_degree :
  ?seed:int ->
  ?double_sample:int ->
  Setup.network ->
  backups:int ->
  Report.t

(** Table 2: one mixed-degree establishment; per-degree R_fast columns. *)
val table_mixed_degrees :
  ?seed:int ->
  ?double_sample:int ->
  Setup.network ->
  backups:int ->
  Report.t

(** Table 3: brute-force multiplexing with per-link spare equal to the
    average required by the proposed scheme at each degree. *)
val table_brute_force :
  ?seed:int -> ?double_sample:int -> Setup.network -> Report.t
