(* Brute-force answers to the netstate's placement queries, read off a
   scan of every registered connection rather than the netstate's
   per-link and per-node indexes: the reference those indexes are
   checked against, and how [Recovery_ref] finds affected connections
   without consulting them. *)

open Bcp

(* Registered connections whose primary holds its reservation and
   crosses [comp], by ascending primary channel id. *)
let conns_with_primary_on ns comp =
  let topo = Netstate.topology ns in
  let id c = c.Dconn.primary.Rtchan.Channel.id in
  List.sort
    (fun a b -> Int.compare (id a) (id b))
    (List.filter
       (fun c ->
         c.Dconn.primary_alive
         && Net.Path.uses_component topo c.Dconn.primary.Rtchan.Channel.path
              comp)
       (Netstate.dconns ns))

(* Standby backups of registered connections whose path crosses [comp],
   newest (largest backup id) first. *)
let backups_using ns comp =
  let topo = Netstate.topology ns in
  List.sort
    (fun (_, a) (_, b) -> Int.compare b.Dconn.bid a.Dconn.bid)
    (List.concat_map
       (fun c ->
         List.filter_map
           (fun b ->
             if
               b.Dconn.state = Dconn.Standby
               && Net.Path.uses_component topo b.Dconn.path comp
             then Some (c, b)
             else None)
           c.Dconn.backups)
       (Netstate.dconns ns))
