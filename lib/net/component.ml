type t =
  | Node of int
  | Link of int

let tag = function Node _ -> 0 | Link _ -> 1
let index = function Node i -> i | Link i -> i

let compare a b =
  match Int.compare (tag a) (tag b) with
  | 0 -> Int.compare (index a) (index b)
  | c -> c

let equal a b = compare a b = 0
let is_node = function Node _ -> true | Link _ -> false

let to_string = function
  | Node i -> Printf.sprintf "node:%d" i
  | Link i -> Printf.sprintf "link:%d" i

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

let inter_card a b =
  (* Iterate the smaller set, probe the larger. *)
  let small, large = if Set.cardinal a <= Set.cardinal b then (a, b) else (b, a) in
  Set.fold (fun c acc -> if Set.mem c large then acc + 1 else acc) small 0

(* Flat component set for routing inner loops: one byte per component in
   the encoded [2*node / 2*link+1] space, plus a touched list so [reset]
   is O(members), not O(universe).  A mask replaces the functional [Set]
   where membership is tested once per BFS/Dijkstra edge relaxation. *)
module Mask = struct
  type mask = {
    bytes : Bytes.t;
    mutable touched : int array;
    mutable n_touched : int;
  }

  let encode = function Node v -> 2 * v | Link l -> (2 * l) + 1

  let create ~num_nodes ~num_links =
    let size = max (2 * num_nodes) ((2 * num_links) + 2) in
    { bytes = Bytes.make (max 1 size) '\000'; touched = Array.make 64 0; n_touched = 0 }

  let add t c =
    let i = encode c in
    if Bytes.get t.bytes i = '\000' then begin
      Bytes.set t.bytes i '\001';
      if t.n_touched = Array.length t.touched then begin
        let nt = Array.make (2 * t.n_touched) 0 in
        Array.blit t.touched 0 nt 0 t.n_touched;
        t.touched <- nt
      end;
      t.touched.(t.n_touched) <- i;
      t.n_touched <- t.n_touched + 1
    end

  let mem_node t v = Bytes.unsafe_get t.bytes (2 * v) = '\001'
  let mem_link t l = Bytes.unsafe_get t.bytes ((2 * l) + 1) = '\001'

  let reset t =
    for i = 0 to t.n_touched - 1 do
      Bytes.unsafe_set t.bytes t.touched.(i) '\000'
    done;
    t.n_touched <- 0

  (* Domain-local reusable scratch mask for routing predicates: reset (and
     regrown when the topology is larger than any seen before) on every
     acquisition.  At most one live user per domain — acquiring again
     invalidates the previous use, which suits the strictly nested
     feasibility-then-search structure of backup routing. *)
  let scratch_key =
    Domain.DLS.new_key (fun () ->
        ref { bytes = Bytes.create 0; touched = Array.make 64 0; n_touched = 0 })

  let scratch ~num_nodes ~num_links =
    let cell = Domain.DLS.get scratch_key in
    let need = max (2 * num_nodes) ((2 * num_links) + 2) in
    if Bytes.length !cell.bytes < need then cell := create ~num_nodes ~num_links
    else reset !cell;
    !cell
end
