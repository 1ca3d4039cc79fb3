(* The int-keyed hash table of lib/. [Hashtbl.Make] over [int] trades the
   generic table's C [caml_hash] and polymorphic [compare] per probe for
   [hash] below and an int equality. Only sorted views leave this module
   (see itbl.mli), so no caller can walk the table in hash order. *)

(* SplitMix64's finalizer, with its constants cut to 63 bits. *)
let hash id =
  let z = id + 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

module H = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)

include H

(* Keys are unique (no [add] is exported), so an unstable sort is exact. *)
let sorted_bindings t =
  let a = Array.of_list (H.fold (fun k v acc -> (k, v) :: acc) t []) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) a;
  a

let sorted_keys t =
  let a = Array.of_list (H.fold (fun k _ acc -> k :: acc) t []) in
  Array.sort Int.compare a;
  a

let sorted_values t = Array.map snd (sorted_bindings t)
let iter_sorted f t = Array.iter (fun (k, v) -> f k v) (sorted_bindings t)
let fold_sorted f t init = Array.fold_left (fun acc (k, v) -> f k v acc) init (sorted_bindings t)
