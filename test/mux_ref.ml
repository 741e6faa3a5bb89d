(* Naive reference for [Bcp.Mux]'s spare accounting (Section 3.2):
   Π-sets and the per-link spare requirement recomputed from first
   principles — pairwise S-values, no bitsets, caches or heap — so the
   incremental engine can be checked against it after every update.
   [requirement] reads the link's backups through the public
   [Mux.on_link]; the list functions also serve as a model for tests that
   track the expected table themselves. *)

let s_naive ~lambda (a : Bcp.Mux.backup_info) (b : Bcp.Mux.backup_info) =
  let sc = Bcp.Mux.shared_count a.primary_components b.primary_components in
  Reliability.Combinatorial.s_activation ~lambda
    ~c_i:(Array.length a.primary_components)
    ~c_j:(Array.length b.primary_components)
    ~sc

(* b ∈ Π(a): ν_b ≤ ν_a and (same connection or S(a, b) ≥ ν_a). *)
let conflicts_naive ~lambda (a : Bcp.Mux.backup_info)
    (b : Bcp.Mux.backup_info) =
  b.nu <= a.nu && (a.conn = b.conn || s_naive ~lambda a b >= a.nu)

let pi_naive ~lambda entries (a : Bcp.Mux.backup_info) =
  List.filter
    (fun (b : Bcp.Mux.backup_info) ->
      b.backup <> a.backup && conflicts_naive ~lambda a b)
    entries

(* max over B_i of bw(B_i) + Σ bw(Π(B_i)); 0 on an empty link. *)
let requirement_naive ~lambda entries =
  List.fold_left
    (fun acc (a : Bcp.Mux.backup_info) ->
      let c =
        a.bw
        +. List.fold_left
             (fun s (b : Bcp.Mux.backup_info) -> s +. b.bw)
             0.0
             (pi_naive ~lambda entries a)
      in
      if c > acc then c else acc)
    0.0 entries

let required_with_naive ~lambda entries (cand : Bcp.Mux.backup_info) =
  if
    List.exists
      (fun (e : Bcp.Mux.backup_info) -> e.backup = cand.backup)
      entries
  then requirement_naive ~lambda entries
  else requirement_naive ~lambda (entries @ [ cand ])

let requirement m ~link =
  requirement_naive ~lambda:(Bcp.Mux.lambda m) (Bcp.Mux.on_link m ~link)

(* [Some (incremental, reference)] when the engine's maintained spare
   requirement on [link] differs from the recompute.  Exact comparison:
   the tests use bandwidths whose sums are order-independent. *)
let mismatch m ~link =
  let got = Bcp.Mux.spare_requirement m ~link in
  let expected = requirement m ~link in
  if got = expected then None else Some (got, expected)
