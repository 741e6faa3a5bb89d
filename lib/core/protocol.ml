type scheme = Scheme1 | Scheme2 | Scheme3

type priority_mode =
  | No_priority
  | Delayed_activation of float
  | Preemptive

type detector_mode = Oracle | Heartbeat of Detector.params

type config = {
  scheme : scheme;
  priority : priority_mode;
  rcc : Rcc.Transport.params;
  detector : detector_mode;
  detection_latency : float;
  rejoin_timeout : float;
  best_effort_delay : float;
  rejoin_retry : float;
  reconfigure_netstate : bool;
}

let default_config =
  {
    scheme = Scheme3;
    priority = No_priority;
    rcc = Rcc.Transport.default_params;
    detector = Oracle;
    detection_latency = 1e-4;
    rejoin_timeout = 0.5;
    best_effort_delay = 1e-3;
    rejoin_retry = 2e-2;
    reconfigure_netstate = false;
  }

let serial_bits = 6
let serial_mask = (1 lsl serial_bits) - 1

let cid ~conn ~serial =
  if serial < 0 || serial > serial_mask then
    invalid_arg "Protocol.cid: serial outside [0, 63]";
  if conn < 0 then invalid_arg "Protocol.cid: negative connection id";
  (conn lsl serial_bits) lor serial

let conn_of_cid c = c lsr serial_bits
let serial_of_cid c = c land serial_mask

type chan_state = Sim.Event.chan_state = N | P | B | U

type be_message =
  | Rejoin_request of { channel : int }
  | Rejoin of { channel : int }
  | Closure of { channel : int }
