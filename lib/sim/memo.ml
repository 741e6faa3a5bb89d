type ('k, 'v) t = {
  slot : ('k, 'v) Ephemeron.K1.t option Atomic.t;
  lock : Mutex.t; (* held by a build *)
}

let create () = { slot = Atomic.make None; lock = Mutex.create () }

let query t k =
  match Atomic.get t.slot with None -> None | Some e -> Ephemeron.K1.query e k

(* The lock-free read serves every hit; a miss re-checks under the lock,
   so domains that miss together build once. *)
let find_or_build t k ~current build =
  match query t k with
  | Some v when current v -> v
  | _ ->
    Mutex.protect t.lock (fun () ->
        match query t k with
        | Some v when current v -> v
        | _ ->
          let v = build () in
          Atomic.set t.slot (Some (Ephemeron.K1.make k v));
          v)
