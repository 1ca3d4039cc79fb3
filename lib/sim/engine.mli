(** Discrete-event simulation engine.

    Time is integer nanoseconds. Events scheduled for the same instant fire
    in scheduling order, making runs deterministic — the contract holds
    identically under both backends below, which the differential tests in
    [test_sim.ml] assert event for event and digest for digest.

    An event is either a closure ({!at} / {!after}) or a {e keyed} event
    ({!after_key}): a non-negative int handed to the one handler installed
    with {!set_handler}. A keyed event is its queue entry and nothing more,
    so with the default {!Calendar} backend — the engine's own wheel of
    1-ns buckets over a 16,000-ns window, with a {!Util.Heap} for the times
    beyond it — scheduling and firing one allocates nothing. The wheel is
    private to this module so that its per-event add and pop are direct
    calls. The packet fabric keys its two per-hop events by link and by
    packet ({!Net}). A closure event costs its closure and a slot in a pool
    recycled through a free list. *)

type t

(** [Binary_heap] is the original single binary-heap queue, kept as the
    reference for differential tests; [Calendar] is the O(1) wheel. Both
    pop in (time, scheduling order). *)
type backend = Binary_heap | Calendar

val create : ?backend:backend -> unit -> t
(** Default backend is [Calendar]. *)

val backend : t -> backend

val now : t -> int
(** Current simulation time in ns. *)

val at : t -> int -> (unit -> unit) -> unit
(** Schedule a thunk at an absolute time (>= now). *)

val after : t -> int -> (unit -> unit) -> unit
(** Schedule a thunk [delay] ns from now. *)

val set_handler : t -> (int -> unit) -> unit
(** Install the handler for keyed events. One consumer owns the key
    space — in this simulator, {!Net}. *)

val after_key : t -> int -> int -> unit
(** [after_key t delay key] schedules keyed event [key] [delay] ns from
    now; when it fires the handler receives [key]. No closure is built.
    A key is free again once its event has fired, so the handler may
    reschedule it. Raises [Invalid_argument] if [key < 0] or if [key] is
    already pending, on both backends. Firing without a handler
    installed raises. *)

val run : ?until:int -> t -> unit
(** Process events in time order until the queue empties or the next
    event lies past [until]. In the second case the clock moves forward
    to [until]; it never moves backwards, so [until] before {!now} fires
    nothing and leaves the clock alone. *)

val pending : t -> int
(** Number of scheduled events, keyed and closure alike. *)
