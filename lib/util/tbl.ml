(* Deterministic iteration over [Hashtbl.t].

   R2C2's congestion control only works if every node computes the same
   allocation from the same broadcast traffic matrix; any state derived
   from raw [Hashtbl.iter]/[Hashtbl.fold] order is a rack-divergence
   hazard (two nodes inserting the same bindings in different orders walk
   them in different orders). The linter (`tools/lint`, rule D3) therefore
   bans raw table iteration under `lib/`; call sites go through this
   module, which fixes the order by sorting on the key.

   All helpers take an explicit [~cmp] on keys — no polymorphic compare
   (rule S2) — and use a stable sort so tables with duplicate keys (via
   [Hashtbl.add] shadowing) still iterate deterministically, most recent
   binding first per key. *)

let bindings t =
  (* The only sanctioned raw fold: order is repaired by the callers below. *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] (* lint: allow D3 — Tbl is the sorted-iteration primitive; order is fixed by the sort below *)

let sorted_bindings ~cmp t =
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> cmp a b) (bindings t))

let sorted_keys ~cmp t =
  Array.map fst (sorted_bindings ~cmp t)

(* Drop-in replacements for [Hashtbl.iter]/[Hashtbl.fold]: same argument
   order, plus the key comparator. *)

let iter_sorted ~cmp f t =
  Array.iter (fun (k, v) -> f k v) (sorted_bindings ~cmp t)

let fold_sorted ~cmp f t init =
  Array.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings ~cmp t)
