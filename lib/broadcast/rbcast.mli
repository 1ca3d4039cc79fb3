(** Reliable-broadcast bookkeeping for a lossy control plane.

    The flow-event broadcasts of §3.2 are only a usable traffic-matrix feed
    if every node can tell {e that} it missed a packet and recover it. This
    module provides the deterministic machinery both ends need:

    - the {e origin} stamps each broadcast with a per-(source, tree)
      monotonic sequence number, keeps a bounded replay log for answering
      NACKs, and maintains the authoritative live-flow set whose hash rides
      in anti-entropy digests;
    - the {e receive window} (one per (source, tree) at every node)
      delivers packets exactly once in sequence order, buffers reordered
      arrivals, surfaces gaps for NACK-based repair and absorbs duplicates.

    Everything here is pure data structure: timers, packet transport and
    topology stay with the caller, so the same code backs the packet
    simulator ([Sim.R2c2_sim]) and the application-level control plane
    ([R2c2.Stack]). Payloads are polymorphic — the simulator stores compact
    event ids, the stack stores decoded {!Wire.broadcast} records. *)

(** {2 Origin (sender) side} *)

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

val live_ids : 'a origin -> int list
(** The live-flow ids, ascending — the payload of a full-state sync. *)

val state_hash : 'a origin -> int64
(** {!hash_ids} of {!live_ids} — what digests advertise. *)

val bump_epoch : 'a origin -> int
(** Advance and return the anti-entropy epoch counter. *)

val epoch : 'a origin -> int

val restart : 'a origin -> int
(** Crash-restart: wipe the replay logs, live set and sequence spaces (the
    node lost all soft state), bump the anti-entropy epoch, and advance the
    {e incarnation} — returned so the rejoin JOIN can announce it. Receive
    windows key their invalidation on the incarnation via {!ensure_epoch},
    {e not} on the epoch, which moves every digest round. *)

val incarnation : 'a origin -> int
(** Number of restarts this origin has gone through; 0 initially. *)

(** {2 Receive window (per source, per tree)} *)

type 'a rx

type 'a verdict =
  | Deliver of 'a list
      (** the packet (and any buffered successors) is deliverable now, in
          sequence order, each exactly once *)
  | Duplicate  (** already delivered or already buffered; drop *)
  | Buffered  (** arrived ahead of a gap; a repair should be scheduled *)

val rx : unit -> 'a rx
(** A fresh window expecting sequence number 0, keyed to incarnation 0. *)

val ensure_epoch : 'a rx -> epoch:int -> bool
(** Stale-window guard: call with the origin incarnation stamped on an
    incoming packet {e before} {!receive}. A higher incarnation than the
    window's drops all window state (pending buffer, sequence cursor,
    repair latch) and re-keys it — without this, the restarted origin's
    fresh sequence 0 would be absorbed as a duplicate of the pre-crash
    run. Returns false when the packet is from an older incarnation and
    must be ignored. *)

val rx_incarnation : 'a rx -> int
(** The origin incarnation the window is currently keyed to. *)

val receive : 'a rx -> seq:int -> 'a -> 'a verdict

val next_expected : 'a rx -> int
val duplicates : 'a rx -> int
(** Packets absorbed as duplicates so far. *)

val missing : 'a rx -> upto:int -> (int * int) list
(** Inclusive gaps in [next_expected .. upto] not covered by buffered
    packets — the ranges a NACK should request. Empty when caught up. *)

val fast_forward : 'a rx -> next:int -> 'a list
(** After a full-state sync covering everything below [next]: drop the
    stale buffer entries, jump the window to [next], and return any
    buffered in-order run starting there (strictly newer than the sync, so
    the caller still applies it). No-op returning [[]] if the window is
    already at or past [next]. *)

val arm : 'a rx -> bool
(** Latch the caller's repair timer: true exactly when it was not armed,
    so only one timer per window is outstanding. *)

val disarm : 'a rx -> unit

(** {2 Deterministic state hash} *)

val hash_ids : int list -> int64
(** FNV-1a over the ids; callers feed them sorted ascending so every node
    hashes identical sets to identical values. *)
