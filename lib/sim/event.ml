type chan_state = N | P | B | U

let chan_state_to_string = function N -> "N" | P -> "P" | B -> "B" | U -> "U"

let chan_state_of_string = function
  | "N" -> Some N
  | "P" -> Some P
  | "B" -> Some B
  | "U" -> Some U
  | _ -> None

type rcc_op = Send | Retransmit | Deliver | Ack | Drop

let rcc_op_to_string = function
  | Send -> "send"
  | Retransmit -> "retransmit"
  | Deliver -> "deliver"
  | Ack -> "ack"
  | Drop -> "drop"

let rcc_op_of_string = function
  | "send" -> Some Send
  | "retransmit" -> Some Retransmit
  | "deliver" -> Some Deliver
  | "ack" -> Some Ack
  | "drop" -> Some Drop
  | _ -> None

type detector_signal = Suspect | Confirm | Clear

let detector_signal_to_string = function
  | Suspect -> "suspect"
  | Confirm -> "confirm"
  | Clear -> "clear"

let detector_signal_of_string = function
  | "suspect" -> Some Suspect
  | "confirm" -> Some Confirm
  | "clear" -> Some Clear
  | _ -> None

type timer_op = Started | Cancelled | Expired

let timer_op_to_string = function
  | Started -> "started"
  | Cancelled -> "cancelled"
  | Expired -> "expired"

let timer_op_of_string = function
  | "started" -> Some Started
  | "cancelled" -> Some Cancelled
  | "expired" -> Some Expired
  | _ -> None

type lifecycle_op = Arrive | Admit | Block | Depart | Readmit

let lifecycle_op_to_string = function
  | Arrive -> "arrive"
  | Admit -> "admit"
  | Block -> "block"
  | Depart -> "depart"
  | Readmit -> "readmit"

let lifecycle_op_of_string = function
  | "arrive" -> Some Arrive
  | "admit" -> Some Admit
  | "block" -> Some Block
  | "depart" -> Some Depart
  | "readmit" -> Some Readmit
  | _ -> None

type mux_op = Register | Unregister

let mux_op_to_string = function
  | Register -> "register"
  | Unregister -> "unregister"

let mux_op_of_string = function
  | "register" -> Some Register
  | "unregister" -> Some Unregister
  | _ -> None

type component = Node of int | Link of int

type t =
  | Chan_transition of {
      node : int;
      channel : int;
      from_ : chan_state;
      to_ : chan_state;
      cause : string;
    }
  | Rcc of { link : int; op : rcc_op; seq : int; bytes : int }
  | Detector of { node : int; link : int; signal : detector_signal }
  | Activation of { node : int; conn : int; serial : int; channel : int }
  | Rejoin_timer of { node : int; channel : int; op : timer_op }
  | Mux of { link : int; backup : int; op : mux_op; pi : int; psi : int }
  | Fault of { component : component; up : bool }
  | Lifecycle of { conn : int; op : lifecycle_op; active : int }

let type_tag = function
  | Chan_transition _ -> "chan"
  | Rcc _ -> "rcc"
  | Detector _ -> "detector"
  | Activation _ -> "activation"
  | Rejoin_timer _ -> "rejoin-timer"
  | Mux _ -> "mux"
  | Fault _ -> "fault"
  | Lifecycle _ -> "lifecycle"

let pp ppf = function
  | Chan_transition { node; channel; from_; to_; cause } ->
    Format.fprintf ppf "chan(node=%d, ch=%d, %s->%s, %s)" node channel
      (chan_state_to_string from_) (chan_state_to_string to_) cause
  | Rcc { link; op; seq; bytes } ->
    Format.fprintf ppf "rcc(link=%d, %s, seq=%d, %dB)" link
      (rcc_op_to_string op) seq bytes
  | Detector { node; link; signal } ->
    Format.fprintf ppf "detector(node=%d, link=%d, %s)" node link
      (detector_signal_to_string signal)
  | Activation { node; conn; serial; channel } ->
    Format.fprintf ppf "activation(node=%d, conn=%d, serial=%d, ch=%d)" node
      conn serial channel
  | Rejoin_timer { node; channel; op } ->
    Format.fprintf ppf "rejoin-timer(node=%d, ch=%d, %s)" node channel
      (timer_op_to_string op)
  | Mux { link; backup; op; pi; psi } ->
    Format.fprintf ppf "mux(link=%d, backup=%d, %s, pi=%d, psi=%d)" link backup
      (mux_op_to_string op) pi psi
  | Fault { component; up } ->
    let kind, id =
      match component with Node v -> ("node", v) | Link l -> ("link", l)
    in
    Format.fprintf ppf "fault(%s=%d, %s)" kind id (if up then "up" else "down")
  | Lifecycle { conn; op; active } ->
    Format.fprintf ppf "lifecycle(conn=%d, %s, active=%d)" conn
      (lifecycle_op_to_string op) active

let to_string ev = Format.asprintf "%a" pp ev
