(** Mutable binary min-heap keyed by integer priority.

    The simulator's event queue: priorities are times in nanoseconds.
    Entries with equal priority are popped in insertion order, which makes
    event processing deterministic. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push h priority v] inserts [v]. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority entry. *)

val peek : 'a t -> (int * 'a) option

(** {2 Allocation-free variants}

    For users with non-negative priorities (the simulator's times): plain
    ints instead of options, [-1] as the empty marker. *)

val peek_prio : 'a t -> int
(** Priority of the minimum entry, or [-1] when the heap is empty. *)

val pop_int : int t -> int
(** Specialization for int-valued heaps: removes the minimum entry and
    returns its value, or [-1] when empty. The removed entry's priority is
    readable via {!popped_prio}. *)

val popped_prio : 'a t -> int
(** Priority of the entry last removed by {!pop} / {!pop_int}; [-1]
    before any removal. *)
