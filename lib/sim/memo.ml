(* At most [slots] entries, newest first, one per key.  An entry's
   ephemeron holds its value no longer than its key; the weak pointer
   beside it tells a build that the key has died, so the entry can go. *)
let slots = 8

type ('k, 'v) entry = { key : 'k Weak.t; value : ('k, 'v) Ephemeron.K1.t }

type ('k, 'v) t = {
  entries : ('k, 'v) entry list Atomic.t;
  lock : Mutex.t; (* held by a build *)
}

let create () = { entries = Atomic.make []; lock = Mutex.create () }

let query t k =
  List.find_map (fun e -> Ephemeron.K1.query e.value k) (Atomic.get t.entries)

let entry k v =
  let key = Weak.create 1 in
  Weak.set key 0 (Some k);
  { key; value = Ephemeron.K1.make k v }

(* Entries of other keys that are still alive. *)
let other k e = match Weak.get e.key 0 with Some k' -> k' != k | None -> false

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
          let kept =
            List.filter (other k) (Atomic.get t.entries)
            |> List.filteri (fun i _ -> i < slots - 1)
          in
          Atomic.set t.entries (entry k v :: kept);
          v)
