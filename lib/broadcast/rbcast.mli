(** Reliable-broadcast bookkeeping for a lossy control plane: the origin
    (sender) side.

    The flow-event broadcasts of §3.2 are only a usable traffic-matrix feed
    if every node can tell {e that} it missed a packet and recover it. The
    origin stamps each broadcast with a per-(source, tree) monotonic
    sequence number, keeps a bounded replay log for answering NACKs, and
    maintains the authoritative live-flow set, one set hash per tree, whose
    hashes ride in anti-entropy digests. It also decides which streams a
    digest round covers ({!digest_due}). The receiving side — windows, gap
    detection, dedup, digest verdicts — is {!Replicas}.

    Everything here is pure data structure: timers, packet transport and
    topology stay with the caller, so the same code backs the packet
    simulator ([Sim.R2c2_sim]) and the application-level control plane
    ([R2c2.Stack]). Payloads are polymorphic — the simulator stores compact
    event ids, the stack stores decoded {!Wire.broadcast} records. *)

type 'a origin

val origin : ?log_cap:int -> trees:int -> unit -> 'a origin
(** Sender state for one source owning [trees] broadcast trees. The replay
    log keeps the [log_cap] (default 65536) most recent packets per tree;
    older sequence numbers can no longer be retransmitted and must be
    recovered by a full-state sync. *)

val send : 'a origin -> tree:int -> 'a -> int
(** Assign the next sequence number on [tree], log the payload for
    retransmission, and return the sequence number to put on the wire. *)

val last_seq : 'a origin -> tree:int -> int
(** Highest sequence number assigned on [tree]; -1 if none yet. *)

val replay : 'a origin -> tree:int -> seq:int -> 'a option
(** Look up a logged packet for NACK retransmission; [None] once evicted. *)

val mark_live : 'a origin -> tree:int -> int -> unit
(** Record a flow id as live at this origin (sent with its start event).
    Every event of a flow rides the [tree] it started on. *)

val mark_dead : 'a origin -> int -> unit
(** Remove a flow id (sent with its finish event). *)

val snapshot : 'a origin -> (int * int) list * int array
(** A full-state sync's payload: the live flows as [(id, tree)], ascending
    by id, and each tree's {!last_seq}. *)

val tree_hash : 'a origin -> tree:int -> int
(** The {!Replicas.id_hash} set hash of the live flows on [tree], kept in
    O(1) by {!mark_live} and {!mark_dead} — what [tree]'s digests carry. *)

val state_hash : 'a origin -> int
(** The set hash of the whole live set: the sum of the {!tree_hash}es. *)

val bump_epoch : 'a origin -> int
(** Open an anti-entropy round: advance and return the epoch counter. *)

val pack_epoch : inc:int -> epoch:int -> int
(** A digest's 32-bit epoch word ({!Wire.digest}): the incarnation [inc]
    in the upper 16 bits over the low 16 bits of the round counter
    [epoch], which may wrap, since nothing orders rounds. With [inc] = 0 it
    is [epoch] for the first 65,535 rounds. Receivers do order
    incarnations ({!Replicas.admit}), which bounds an origin to 65,535
    restarts: raises [Invalid_argument] unless [0 <= inc < 65536]. *)

val unpack_inc : int -> int
(** The incarnation a {!pack_epoch} word carries. *)

val digest_cap : int
(** 8: the most rounds a quiet stream skips between two digests. *)

val digest_due : 'a origin -> tree:int -> bool
(** Whether [tree]'s stream gets a digest in the round {!bump_epoch} just
    opened; a [true] answer records that digest, so ask once per tree per
    round. A tree that never carried an event is never due. A stream whose
    {!last_seq} moved since its latest digest is due at once; a quiet one
    then skips 1, 2, 4 and then {!digest_cap} rounds between digests, so a
    lost final event is still exposed within the cap, and {!note_nack}
    makes it due again. *)

val note_nack : 'a origin -> tree:int -> to_seq:int -> unit
(** A NACK for [tree]'s stream, up to sequence [to_seq], reached the
    origin. When it reaches the stream's {!last_seq}, the lost event is one
    no later packet exposes: other receivers that lost it learn of the loss
    only from a digest, so the stream is due in the next round and restarts
    its backoff. *)

val reset_backoff : 'a origin -> unit
(** Make every stream that has carried an event due in the next round —
    after a topology change, so a healed or rejoining node hears them
    all. *)

val restart : 'a origin -> int
(** Crash-restart: wipe the replay logs, live set, backoffs and sequence
    spaces (the node lost all soft state), bump the anti-entropy epoch,
    and advance the {e incarnation} — returned so the rejoin JOIN can
    announce it. Receive windows key their invalidation on the incarnation
    ({!Replicas.admit}), {e not} on the epoch, which moves every digest
    round. *)

val incarnation : 'a origin -> int
(** Number of restarts this origin has gone through; 0 initially. *)
