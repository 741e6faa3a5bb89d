(** Figure 9: average spare-bandwidth reservation vs. network load.

    Connections are established incrementally; after every 250
    establishments we record (network load %, spare bandwidth %).  One
    series per multiplexing degree; mux=0 means multiplexing disabled. *)

type series = {
  degree : int;
  rejected : int;
  points : (float * float) list;  (** (load %, spare %) in load order *)
}

val run : ?seed:int -> Setup.network -> backups:int -> series list
(** One series per degree 0, 1, 3, 5, 6 (the paper's plotted set). *)

val report : Setup.network -> backups:int -> series list -> Report.t
(** Rows = network-load checkpoints; one column per degree. *)
