(** Reliable-broadcast bookkeeping for a lossy control plane: the origin
    (sender) side.

    The flow-event broadcasts of §3.2 are only a usable traffic-matrix feed
    if every node can tell {e that} it missed a packet and recover it. The
    origin stamps each broadcast with a per-(source, tree) monotonic
    sequence number, keeps a bounded replay log for answering NACKs, and
    maintains the authoritative live-flow set, one set hash per tree, whose
    hashes ride in anti-entropy digests. Each of the origin's jobs is one
    call: sequence a flow event ({!announce}), run a digest round
    ({!digest_round}) and answer a NACK ({!replay_range}). The receiving
    side — windows, gap detection, dedup, digest verdicts — is
    {!Replicas}.

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

val announce : 'a origin -> tree:int -> flow:int -> Wire.event -> 'a -> int
(** Sequence one event of [flow] on [tree], the tree the flow started on:
    a start marks the flow live on [tree] and a finish marks it dead, and
    then the payload is sequenced as by {!send}. Every event of a flow
    rides one tree, so each tree's set hash covers exactly the flows its
    stream carries. *)

val last_seq : 'a origin -> tree:int -> int
(** Highest sequence number assigned on [tree]; -1 if none yet. *)

val mark_dead : 'a origin -> int -> unit
(** Remove a flow id from the live set without an event, for a flow that
    is aborted rather than finished. *)

val snapshot : 'a origin -> (int * int) list * int array
(** A full-state sync's payload: the live flows as [(id, tree)], ascending
    by id, and each tree's {!last_seq}. *)

val state_hash : 'a origin -> int
(** The {!Replicas.id_hash} set hash of the whole live set: the sum of the
    per-tree hashes that digests carry, kept in O(1) per event. *)

val digest_cap : int
(** 8: the most rounds a quiet stream skips between two digests. *)

val digest_round :
  'a origin -> (epoch:int -> tree:int -> last_seq:int -> hash:int -> unit) -> unit
(** Open an anti-entropy round and call [f ~epoch ~tree ~last_seq ~hash]
    once per due stream, in ascending tree order, with what its digest
    carries: the round's {!Wire.pack_epoch} word (the {!incarnation} over
    the round counter), the tree's {!last_seq} and the set hash of its
    live flows. A tree that never carried an event is never due. A stream
    whose {!last_seq} moved since its latest digest is due at once; a
    quiet one then skips 1, 2, 4 and then {!digest_cap} rounds between
    digests, so a lost final event is still exposed within the cap. *)

val nack_bound : int
(** 256: the most sequences one NACK is answered with. A requester still
    missing the rest of a larger range NACKs it again. *)

val replay_range :
  'a origin -> tree:int -> from_seq:int -> to_seq:int -> (int -> 'a -> unit) -> bool
(** Answer a NACK for [tree]'s inclusive range: call [f seq payload] for
    every logged sequence from [from_seq] to [to_seq], in ascending order,
    at most {!nack_bound} of them and none past {!last_seq} (the wire
    allows any 32-bit [to_seq]). Returns [true] when a sequence of that
    bounded range cannot be replayed, being evicted from the log or never
    sent: the requester then needs a full-state sync. A NACK that reaches
    the stream's {!last_seq} reports a loss no later packet exposes, so the
    stream is due in the next {!digest_round} and restarts its backoff.
    Raises [Invalid_argument] on [to_seq < from_seq]. *)

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
