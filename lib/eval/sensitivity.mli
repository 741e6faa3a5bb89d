(** Section 7.1 (last paragraph): sensitivity of backup multiplexing to
    traffic conditions and to topology.

    The paper reports that multiplexing efficiency is "relatively
    insensitive to network traffic conditions, but is more sensitive to
    network topology — less effective in sparsely-connected networks".
    {!traffic} varies the workload on a fixed topology; {!topology} fixes
    the workload and varies connectivity.  Both run at multiplexing
    degree 3. *)

val traffic : ?seed:int -> Setup.network -> Report.t
(** Rows: uniform 1 Mbps / mixed bandwidths {0.5, 1, 2, 4} / hot-spot
    endpoints; columns: load %, spare %, spare-per-load ratio, R_fast for
    single link failures. *)

val topology : ?seed:int -> unit -> Report.t
(** Same workload density on an 8×8 torus (degree 4), 8×8 mesh (degree
    2–4), a 64-node degree-3 random network, and a 64-node ring (degree
    2): multiplexing efficiency per topology. *)

(** Section 5.2: the S^RCC_max sizing audit on an established network. *)
val s_max_audit : Bcp.Netstate.t -> Rcc.Transport.params -> Report.t
(** For the worst link pair, the number of channels whose control messages
    can burst onto one link, the implied S^RCC_max, and whether the given
    RCC parameters satisfy the bound. *)
