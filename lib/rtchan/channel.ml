type id = int

type t = {
  id : id;
  path : Net.Path.t;
  traffic : Traffic.t;
  qos : Qos.t;
}

let bandwidth t = Traffic.bandwidth t.traffic
let hops t = Net.Path.hops t.path
let src t = t.path.Net.Path.src
let dst t = t.path.Net.Path.dst
