(** Flat object pools for the simulator's packet hot path (DESIGN.md §11).

    A pool is one contiguous Bigarray of boxed-free native ints; objects are
    fixed-width records addressed by integer handle, recycled through a free
    list. Allocating or freeing touches no OCaml heap, so a steady-state
    alloc/free loop runs at zero minor-words per object — the property the
    data plane's zero-allocation unit tests assert.

    Handles are plain ints. The pool detects double frees (and use of a
    handle outside the live range) but {e not} use-after-free through a
    stale handle whose slot was since reallocated; owners must follow the
    usual discipline of never reading a handle they released. *)

type t

val create : ?capacity:int -> width:int -> unit -> t
(** A pool of [width]-field int records; [capacity] (default 256) is the
    initial record count, grown by doubling. Raises [Invalid_argument] if
    [width <= 0]. *)

val alloc : t -> int
(** Pops a free record (all fields zeroed) and returns its handle. *)

val alloc_uninit : t -> int
(** {!alloc} without the field zeroing — the contents are unspecified (a
    recycled record keeps stale values). For callers that overwrite every
    field anyway; the packet path does, so zeroing first would double the
    stores. *)

val free : t -> int -> unit
(** Returns a record to the free list. Raises [Invalid_argument] on a
    double free or an out-of-range handle. *)

val get : t -> int -> int -> int
(** [get pool h f] reads field [f] of record [h]. Unchecked beyond array
    bounds: the caller owns handle validity. *)

val set : t -> int -> int -> int -> unit

val data : t -> (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The backing store. Grows (is replaced) when the pool grows, so hot
    readers must re-fetch it after any [alloc]. *)

val is_live : t -> int -> bool
val live : t -> int
(** Currently allocated record count. *)

val high_water : t -> int
(** Peak of {!live} over the pool's lifetime. *)

val capacity : t -> int

(** Refcounted int slices in one flat pool — the simulator's route store.
    A slice is shared by every packet that carries the route (retransmits
    included); the last [release] recycles it onto a per-length free list.
    The free-list heads are a flat array indexed by length, so an
    intern/release pair allocates nothing in steady state. *)
module Ints : sig
  type pool

  val create : ?capacity:int -> unit -> pool
  (** [capacity] (default 1024) is the initial word count. *)

  val of_array : pool -> int array -> int
  (** Copies the array into the pool; returns a slice handle with
      refcount 1. The empty array yields the shared handle {!empty}. *)

  val of_prefix : pool -> int array -> int -> int
  (** [of_prefix pool a n] is [of_array pool (Array.sub a 0 n)] without
      the intermediate array: interning a route from a reusable buffer
      allocates nothing once its length's free list is warm. Raises
      [Invalid_argument] unless [0 <= n <= Array.length a]. *)

  val empty : int
  (** The canonical zero-length slice; retain/release on it are no-ops. *)

  val length : pool -> int -> int

  val get : pool -> int -> int -> int
  (** [get pool s i] is element [i] of slice [s]; bounds unchecked beyond
      the backing array. *)

  val set : pool -> int -> int -> int -> unit

  val retain : pool -> int -> unit
  (** Adds one owner. *)

  val release : pool -> int -> unit
  (** Drops one owner; the last release frees the slice. Raises
      [Invalid_argument] when the slice is already free (double
      release). *)

  val refcount : pool -> int -> int

  val live : pool -> int
  (** Live slice count. *)

  val data : pool -> (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  (** Backing store; element [i] of slice [s] lives at index [s + i].
      Replaced on growth, so re-fetch after any allocation. *)
end
