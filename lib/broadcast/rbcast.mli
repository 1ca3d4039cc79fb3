(** Reliable-broadcast bookkeeping for a lossy control plane: the origin
    (sender) side.

    The flow-event broadcasts of §3.2 are only a usable traffic-matrix feed
    if every node can tell {e that} it missed a packet and recover it. The
    origin stamps each broadcast with a per-(source, tree) monotonic
    sequence number, keeps a bounded replay log for answering NACKs, and
    maintains the authoritative live-flow set whose hash rides in
    anti-entropy digests. The receiving side — windows, gap detection,
    dedup, digest verdicts — is {!Replicas}.

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

val mark_live : 'a origin -> int -> unit
(** Record a flow id as live at this origin (sent with its start event). *)

val mark_dead : 'a origin -> int -> unit
(** Remove a flow id (sent with its finish event). *)

val snapshot : 'a origin -> int list * int array
(** A full-state sync's payload: the live-flow ids, ascending, and each
    tree's {!last_seq}. *)

val state_hash : 'a origin -> int
(** The {!Replicas.id_hash} set hash of the live set, kept in O(1) by
    {!mark_live} and {!mark_dead} — what digests advertise. *)

val bump_epoch : 'a origin -> int
(** Advance and return the anti-entropy epoch counter. *)

val restart : 'a origin -> int
(** Crash-restart: wipe the replay logs, live set and sequence spaces (the
    node lost all soft state), bump the anti-entropy epoch, and advance the
    {e incarnation} — returned so the rejoin JOIN can announce it. Receive
    windows key their invalidation on the incarnation
    ({!Replicas.admit}), {e not} on the epoch, which moves every digest
    round. *)

val incarnation : 'a origin -> int
(** Number of restarts this origin has gone through; 0 initially. *)
