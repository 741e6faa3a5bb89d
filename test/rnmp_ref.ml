(* RNMP's disabled-channel query, a test-side reference: the sorted,
   duplicate-free ids of the channels whose path crosses any failed
   component, read through RNMP's per-link and per-node indexes. *)

let channels_disabled_by rnmp failed =
  List.sort_uniq Int.compare
    (List.concat_map
       (function
         | Net.Component.Link l -> Rtchan.Rnmp.channels_on_link rnmp l
         | Net.Component.Node v -> Rtchan.Rnmp.channels_through_node rnmp v)
       failed)
