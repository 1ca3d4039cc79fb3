(** Deterministic iteration over [Hashtbl.t].

    R2C2's congestion control (§3.2–3.3) only works if every node
    computes the same allocation from the same broadcast traffic matrix;
    any state derived from raw [Hashtbl.iter]/[Hashtbl.fold] order is a
    rack-divergence hazard — two nodes holding the same bindings but
    inserted in different orders walk them differently. r2c2-lint rule D3
    therefore bans raw table iteration under [lib/]; call sites go
    through this module, which fixes the order by sorting on the key.
    Int-keyed tables in [lib/] are {!Itbl}, whose only iteration is sorted.

    This interface is the {e sealed} D3 escape hatch: the one raw
    [Hashtbl.fold] in the implementation (annotated with the repo's only
    D3 suppression comment) is deliberately not exported, so the unsorted
    bindings can never leak past this module. Every exported helper takes
    an explicit [~cmp] on keys — no polymorphic compare (rule S2) — and
    sorts stably, so tables with duplicate keys (via [Hashtbl.add]
    shadowing) still iterate deterministically, most recent binding first
    per key. *)

val sorted_bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) array
(** All bindings, sorted by key under [cmp]; duplicate keys keep their
    shadowing order (most recent first). *)

val sorted_keys : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k array

val iter_sorted : cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** Drop-in replacement for [Hashtbl.iter], plus the key comparator. *)

val fold_sorted :
  cmp:('k -> 'k -> int) -> ('k -> 'v -> 'a -> 'a) -> ('k, 'v) Hashtbl.t -> 'a -> 'a
(** Drop-in replacement for [Hashtbl.fold], plus the key comparator. *)
