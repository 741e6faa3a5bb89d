(* Naive reference for [Bcp.Mux]'s spare accounting (Section 3.2):
   Π-sets and the per-link spare requirement recomputed from first
   principles — pairwise S-values, no bitsets, caches or heap — so the
   incremental engine can be checked against it after every update.
   [requirement] reads the link's backups through the public
   [Mux.on_link], at the λ the engine was created with, and so does
   [conflict_set]; the list functions also serve as a model for tests
   that track the expected table themselves. *)

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

(* |Ψ| a candidate on no link would have once registered beside
   [entries]. *)
let psi_size_with ~lambda entries (cand : Bcp.Mux.backup_info) =
  List.length entries - List.length (pi_naive ~lambda entries cand)

let required_with_naive ~lambda entries (cand : Bcp.Mux.backup_info) =
  if
    List.exists
      (fun (e : Bcp.Mux.backup_info) -> e.backup = cand.backup)
      entries
  then requirement_naive ~lambda entries
  else requirement_naive ~lambda (entries @ [ cand ])

(* {!Bcp.Mux.probe_upper_bound}'s ceiling for a candidate beside
   [entries]: its bw plus the larger of their Σ bw and requirement. *)
let upper_bound_naive ~lambda entries (cand : Bcp.Mux.backup_info) =
  let sum_bw =
    List.fold_left (fun s (e : Bcp.Mux.backup_info) -> s +. e.bw) 0.0 entries
  in
  cand.bw +. Float.max sum_bw (requirement_naive ~lambda entries)

let requirement ~lambda m ~link =
  requirement_naive ~lambda (Bcp.Mux.on_link m ~link)

(* Π(B, ℓ) by the rule over the link's current backups, as ascending ids.
   @raise Not_found when the backup is not on the link. *)
let conflict_set ~lambda m ~link ~backup =
  let entries = Bcp.Mux.on_link m ~link in
  let a =
    List.find (fun (e : Bcp.Mux.backup_info) -> e.backup = backup) entries
  in
  List.sort Int.compare
    (List.map
       (fun (b : Bcp.Mux.backup_info) -> b.backup)
       (pi_naive ~lambda entries a))

(* |Π(B, ℓ)| as the engine keeps it: the link's backups outside Ψ and B. *)
let pi_size m ~link ~backup =
  Bcp.Mux.count_on m ~link - Bcp.Mux.psi_size m ~link ~backup - 1

(* [Some (incremental, reference)] when the engine's maintained spare
   requirement on [link] differs from the recompute.  Exact comparison:
   the tests use bandwidths whose sums are order-independent. *)
let mismatch ~lambda m ~link =
  let got = Bcp.Mux.spare_requirement m ~link in
  let expected = requirement ~lambda m ~link in
  if got = expected then None else Some (got, expected)
