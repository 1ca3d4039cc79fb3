(** The receiving side of the reliable broadcast plane, for [replicas]
    receivers × [origins] sources × [trees] broadcast trees: per-window
    columns (next expected, highest heard, incarnation, repair latch), one
    out-of-order buffer for every window, and each receiver's believed flow
    set with a commutative hash per (receiver, origin, tree): every event
    of a flow rides one tree, so each window's hash covers exactly the
    flows its stream carries. The packet simulator runs one table for the
    whole rack; the library's [R2c2.View] is a 1 × 1 × [trees] table.
    Windows and sets are allocated on first use.

    Events are the ints {!event} makes of flow events; a negative event
    names no flow. *)

type t

val create : replicas:int -> origins:int -> trees:int -> t

val event : Wire.event -> int -> int
(** [event e flow]: [2 * flow + 1] finishes the flow; [2 * flow] starts or
    refreshes it, for a start, a demand update or a route change alike,
    since each carries the whole flow record. *)

val id_hash : int -> int
(** A set hashes to the sum, mod 2{^63}, of [id_hash] over its members
    (AdHash: Bellare and Micciancio, EUROCRYPT 1997): an add or remove is
    one addition, equal sets hash equal in any order, and the empty set
    hashes to 0. *)

(** {2 Receive windows} *)

val window : t -> replica:int -> origin:int -> tree:int -> int
(** The index of one window: the handle the functions below take. *)

val admit : t -> int -> inc:int -> bool
(** The incarnation guard for a packet stamped with the origin's [inc]: a
    newer incarnation resets the window, so the restarted origin's fresh
    sequence 0 is not taken for a duplicate; an older one answers false. *)

type receipt =
  | Delivered  (** the event and any buffered successors went to [deliver] *)
  | Duplicate
  | Buffered  (** ahead of a gap: a repair should be scheduled *)

val receive : t -> int -> seq:int -> int -> deliver:(int -> int -> unit) -> receipt
(** Feed one sequenced event and raise the highest-heard mark to [seq].
    Each event delivered in order goes to [deliver w ev], [w] its window. *)

val next_expected : t -> int -> int
val highest_heard : t -> int -> int
val incarnation : t -> int -> int

val missing : t -> int -> (int * int) list
(** Inclusive gaps up to the highest-heard mark: what a NACK requests. *)

val caught_up : t -> replica:int -> origin:int -> bool
(** No known missing sequence on any of the origin's trees. *)

val arm : t -> int -> bool
(** Latch the caller's repair timer: true exactly when it was not armed. *)

val disarm : t -> int -> unit

val duplicates : t -> int
(** Duplicates absorbed by every window not since cleared. *)

(** {2 Anti-entropy and membership} *)

type verdict =
  | Synced  (** also a delayed digest, whose tree the replica has passed *)
  | Gaps  (** sequences up to the digest's [last_seq] are missing *)
  | Diverged
      (** exactly at [last_seq + 1], yet the flows on the digest's tree
          hash differently: needs a full sync *)

val observe_digest : t -> int -> epoch:int -> last_seq:int -> hash:int -> verdict
(** [observe_digest t w ~epoch ~last_seq ~hash] checks an origin's digest
    of window [w]'s tree, whose [hash] covers that tree's live flows,
    behind the incarnation guard: {!admit} the incarnation its [epoch] word
    carries ({!Wire.unpack_inc}), so a newer one resets the window first
    and an older one, sent before the origin restarted, answers [Synced].
    Raises the window's highest-heard mark to [last_seq]. *)

val sync :
  t -> replica:int -> origin:int -> ids:(int * int) list -> last_seqs:int array ->
  deliver:(int -> int -> unit) -> unit
(** Full-state repair: replace the origin's slice with [ids], each
    [(flow, tree)], and fast-forward each tree's window past [last_seqs];
    buffered events beyond the sync are newer and still go to [deliver]. *)

val join : t -> replica:int -> origin:int -> inc:int -> [ `Current | `Reset | `Stale ]
(** The origin announced incarnation [inc]. A newer one resets the
    origin's windows and slice; the same or an older one changes nothing. *)

val clear : t -> replica:int -> unit
(** A crashed receiver loses every window and its whole believed set. *)

(** {2 Believed flow sets} *)

val add : t -> int -> int -> unit
(** [add t w id]: believe flow [id], whose events ride window [w]'s tree. *)

val remove : t -> replica:int -> int -> unit

val apply : t -> int -> int -> unit
(** [apply t w ev]: fold one event that arrived on window [w] into the
    believed set. *)

val believed : t -> replica:int -> int array
(** Every believed flow id, ascending. *)

val size : t -> replica:int -> origin:int -> int

val tree_hash : t -> int -> int
(** The set hash of the believed flows on one window's tree, which that
    tree's digests carry. *)

val hash : t -> replica:int -> origin:int -> int
(** The set hash of the origin's slice, the sum of its trees' hashes. *)

val replica_hash : t -> replica:int -> int
(** The set hash of the whole believed set, the sum of its slices'. *)
