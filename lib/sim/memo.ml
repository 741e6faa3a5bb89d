type ('k, 'v) t = ('k, 'v) Ephemeron.K1.t option Atomic.t

let create () = Atomic.make None

let find t k =
  match Atomic.get t with None -> None | Some e -> Ephemeron.K1.query e k

let set t k v = Atomic.set t (Some (Ephemeron.K1.make k v))
