(** The int-keyed hash table of [lib/]: [Hashtbl.Make] over [int], hashed
    by {!hash} and compared with [Int.equal], so a probe makes no C
    [caml_hash] call and no polymorphic [compare].

    Its only iteration is sorted by key (rule D3, see {!Tbl}): two rack
    nodes holding the same bindings walk them in the same order whatever
    their insertion history. {!filter_map_inplace} is the one unsorted
    walk, for order-independent filters. Tables with other key types use
    [Hashtbl] with {!Tbl}. *)

val hash : int -> int
(** SplitMix64's finalizer with its constants cut to 63 bits. Keys that
    differ only in their high bits, such as [seq * windows + w], still
    spread over the buckets; [Replicas.id_hash] is the same function. *)

type 'a t

val create : int -> 'a t
val length : 'a t -> int
val mem : 'a t -> int -> bool
val find : 'a t -> int -> 'a
(** Raises [Not_found] if the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val reset : 'a t -> unit

val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
(** Keep or rebind each binding; the callback must not depend on the
    order it sees them in. *)

val sorted_bindings : 'a t -> (int * 'a) array
(** All bindings, by ascending key. *)

val sorted_keys : 'a t -> int array
val sorted_values : 'a t -> 'a array
val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
val fold_sorted : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
