type t =
  | Failure_report of { channel : int; component : Net.Component.t }
  | Activation of { conn : int; serial : int; channel : int }
  | Mux_failure_report of { channel : int; link : int }
  | Heartbeat of { node : int; beat : int }

(* Channel id (4) + type tag (1) + payload; sizes are nominal but fixed so
   the S_max aggregation bound is meaningful. *)
let size_bytes = function
  | Failure_report _ -> 16
  | Activation _ -> 16
  | Mux_failure_report _ -> 16
  | Heartbeat _ -> 8

let channel_of = function
  | Failure_report { channel; _ } -> channel
  | Activation { channel; _ } -> channel
  | Mux_failure_report { channel; _ } -> channel
  | Heartbeat _ -> -1
