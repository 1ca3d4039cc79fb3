(** Calendar queue: O(1) priority queue for the simulator's event
    distribution (DESIGN.md §11).

    Nearly every event the fabric schedules lands within a few packet
    serialization times of now — link propagation is 100 ns, an MTU at
    10 Gbps serializes in 1.2 µs — so a wheel of 1-ns buckets covering a
    small window ahead of the clock absorbs the hot traffic at O(1) per
    operation, with a binary heap ({!Heap}) as the overflow store for the
    far-future tail (retransmission timers, epoch ticks).

    Payloads are small non-negative ints (the engine's event-pool handles);
    the per-payload FIFO link lives in an internal int array indexed by
    payload, so enqueue/dequeue of wheel events allocates nothing.

    Ordering contract, relied on for bit-for-bit reproducibility: entries
    pop in (time, insertion order) — exactly {!Heap}'s contract. Why it
    holds across the two stores: bucketed times are always strictly below
    every overflow time (an entry is bucketed iff its time falls before the
    window's end, and the window only ever advances); a 1-ns bucket holds a
    single timestamp, and appending to its tail preserves insertion order;
    and the window advances only when the wheel is empty, migrating
    now-in-window overflow entries in heap order — (time, insertion) —
    before any later insertion can append behind them. The window moves
    only to pop the overflow minimum at once, so it never starts past a
    deadline the caller has drained to: any time from that deadline on
    stays schedulable. *)

type t

val create : ?wheel:int -> ?start:int -> unit -> t
(** [wheel] (default 16384) is the bucket count — the window width in time
    units; [start] (default 0) the initial window origin. Raises
    [Invalid_argument] if [wheel < 1]. *)

val add : t -> time:int -> int -> unit
(** Enqueue a payload. [time] must not precede the window origin, which
    trails the last popped time — scheduling in the past is the caller's
    bug and raises [Invalid_argument]. Payloads must be [>= 0]. *)

val pop : t -> (int * int) option
(** Remove the minimum (time, insertion-order) entry as [(time, payload)]. *)

(** {2 Allocation-free variants}

    The engine's hot loop drains millions of events; the option/tuple
    result above would cost ~7 heap words per event. These return plain
    ints instead, with [-1] as the empty marker — callers must therefore
    only schedule non-negative times. *)

val pop_until : t -> until:int -> int
(** One drain step in a single bitmap scan: remove the minimum entry and
    return its payload if its time is [<= until]; return [-1] when the
    queue is empty, or [-2] (leaving the entry and the window in place)
    when the head's time exceeds [until]. {!popped_time} reports the
    head's time after both a pop and a [-2]. *)

val popped_time : t -> int
(** Time of the entry last removed by {!pop} / {!pop_until}; [-1]
    before any pop. *)

val overflow_pushes : t -> int
(** Entries that landed in the overflow heap rather than the wheel over the
    queue's lifetime. *)
