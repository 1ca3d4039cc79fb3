(** The R2C2 network stack control plane (paper §3).

    A [Stack.t] is one node's view of the rack — which, thanks to flow-event
    broadcasting, equals every other node's view. Applications open and
    close flows; the stack broadcasts the events (exposed via
    {!on_broadcast} and counted in {!control_bytes_sent}), tracks the
    global traffic matrix, computes weighted max-min allocations with
    headroom on {!recompute}, estimates demand for host-limited flows, and
    re-selects routing protocols for long flows by §3.4's one rule,
    {!Genetic.Selector.reselect}, which the simulator applies too: move
    flows only if that raises aggregate throughput by more than 1%.

    The packet-level data plane lives in the [sim] library; this module is
    the control plane usable directly by applications and tests. *)

type config = { trees_per_source : int }

val default_config : config
(** {!Topology.trees_per_source} broadcast trees per source. Every stack
    allocates {!Topology.link_gbps} links with {!Topology.headroom} held
    back, routes a flow with RPS unless {!open_flow} names a protocol, and
    re-selects between RPS and VLB. *)

type t
type flow_id = int

val create : ?config:config -> ?seed:int -> Topology.t -> t

val topology : t -> Topology.t
val routing : t -> Routing.ctx
val broadcast : t -> Broadcast.t
val config : t -> config

val on_broadcast : t -> (Wire.broadcast -> unit) -> unit
(** Observe every broadcast packet the stack emits (it is also checked to
    round-trip through {!Wire.encode_broadcast}). *)

val open_flow :
  ?weight:int -> ?priority:int -> ?protocol:Routing.protocol -> t -> src:int -> dst:int -> flow_id
(** Announce a new flow. Raises [Invalid_argument], before any state
    changes, on [src = dst], out-of-range hosts, a [weight] outside
    1..255 or [priority] outside 0..255 (the broadcast's 8-bit fields), or
    a [dst] that [src] cannot reach ({!Routing.fractions}); a refused open
    consumes no flow id. *)

val close_flow : t -> flow_id -> unit
(** Announce flow termination; unknown ids raise. *)

val set_demand : t -> flow_id -> gbps:Util.Units.gbps option -> unit
(** Declare a host-limited flow's demand ([None] = network-limited);
    broadcast as a demand update. *)

val set_protocol : t -> flow_id -> Routing.protocol -> unit
(** Re-route a flow; broadcast as a route change. Raises
    [Invalid_argument], before any state changes, on an unknown id or
    when the flow's [dst] is unreachable under the new protocol. *)

val observe_sender_queue :
  t -> flow_id -> queued_bytes:Util.Units.bytes -> period_ns:int -> unit
(** Feed sender-side queuing into the §3.3.2 demand estimator; when the
    estimate drops below the current allocation the flow's demand is
    updated (and broadcast) automatically. *)

val recompute : t -> unit
(** One rate-computation round over the current traffic matrix. The epoch
    state is maintained incrementally ({!Congestion.Waterfill.Inc}): flow
    events patch it as they happen, so a recompute with no intervening
    event is O(1) and a dirty one reuses all allocator buffers, allocating
    nothing. *)

val rate_gbps : t -> flow_id -> Util.Units.gbps
(** The flow's allocation from the last {!recompute}, read from the
    allocator; 0 for a flow opened since. Unknown ids raise. *)

val allocations : t -> (flow_id * Util.Units.gbps) list
(** All current allocations, in Gbps, read like {!rate_gbps}. *)

val active_flows : t -> (flow_id * int * int * Routing.protocol) list
(** (id, src, dst, protocol) of open flows. *)

val aggregate_throughput_gbps : t -> Util.Units.gbps
(** Sum of current allocations. *)

val reselect_routing : t -> Util.Rng.t -> int
(** §3.4: {!Genetic.Selector.reselect} over the open flows' routing
    protocols, with the selector's default GA budget: the GA's assignment
    is applied (and each change broadcast) only if it beats the current
    aggregate throughput by more than 1%. Returns the number of flows
    whose protocol changed. Call {!recompute} afterwards to refresh
    allocations. *)

val sample_packet_route : t -> flow_id -> Util.Rng.t -> int array * int array
(** Data plane helper: one packet's vertex path under the flow's current
    protocol, with its 3-bit route selectors for the {!Wire} header. *)

val control_bytes_sent : t -> int
(** Wire bytes of all broadcasts so far:
    16 * (vertices - 1) per event. *)

(** {2 Loss-tolerant control plane}

    Every flow-event broadcast also carries a per-(stack, tree) sequence
    number in the 24-byte {!Wire.encode_seq_broadcast} format; a flow's
    events all ride the tree pinned at {!open_flow}, so a peer's per-tree
    receive window ({!View}) orders its finish after its start. Receivers
    repair gaps by NACKing the origin, which answers from a bounded replay
    log ({!replay_range}); periodic digests ({!emit_digests}) expose losses the
    stream cannot (a dropped final packet), and a tree-hash mismatch at
    the digest's position triggers a full-state {!sync_view}. The
    overhead of all of this is accounted separately in
    {!reliability_bytes_sent} — {!control_bytes_sent} keeps the paper's
    pinned 16-byte model. *)

val on_broadcast_seq : t -> (bytes -> unit) -> unit
(** Observe the 24-byte sequenced wire encoding of every emitted
    broadcast — what a lossy transport should carry to a {!View}. *)

val last_seq : t -> tree:int -> int
(** Last sequence number sent on a tree; -1 if none. *)

val matrix_hash : t -> int64
(** The {!Replicas.id_hash} set hash of the open-flow ids, kept in O(1)
    per event; equals {!View.matrix_hash} of every consistent replica. *)

val emit_digests : ?src:int -> t -> Wire.digest list
(** One anti-entropy beacon round: bumps the epoch and returns a digest
    per due stream, in tree order, each stamped with the tree's last
    sequence number and the set hash of the open flows on that tree
    ({!Rbcast.digest_round}, the simulator's round too). A tree whose
    last sequence moved since its previous digest is due at once; a
    quiet one backs off until it skips {!Rbcast.digest_cap} rounds
    between digests. A NACK answered by {!replay_range} that reaches its
    tree's last sequence makes the stream due again, and {!restart} and
    {!notify_failure} make every stream due again. [src]
    (default 0) fills the digest's source field. The epoch field carries
    the round and the origin's {!incarnation} ({!Wire.pack_epoch}), so a
    {!View} ignores a digest sent before a {!restart}. Charged to
    {!reliability_bytes_sent}. *)

val replay_range : t -> tree:int -> from_seq:int -> to_seq:int -> bytes option
(** Answer a NACK's inclusive range as one {!Wire.encode_batch} of
    sequenced events, in ascending order: at most {!Rbcast.nack_bound}
    (256) sequences from [from_seq], the bound the simulator's origins
    answer with too, so a requester missing more NACKs the rest again.
    The walk ({!Rbcast.replay_range}) stops at the tree's {!last_seq}:
    later sequences were never sent, so a range running past it (the wire
    allows any 32-bit [to_seq]) costs no more than one ending there.
    Sequences already evicted from the replay log are skipped; [None]
    when nothing in the range survives (the requester then needs a full
    {!sync_view}). Feed the result to {!View.apply_batch}. Each replayed
    event is re-encoded with its original sequence number, charged to
    {!reliability_bytes_sent} at broadcast fan-out and counted in
    {!event_retransmits}. Raises [Invalid_argument] on
    [to_seq < from_seq]. *)

val sync_view : t -> View.t -> unit
(** Full-state repair of a diverged replica — one whose
    {!View.matrix_hash} differs from {!matrix_hash}: replaces its believed
    flow set with the authoritative one and fast-forwards its windows.
    Charged as {!Wire.sync_size} to {!reliability_bytes_sent}. *)

val incarnation : t -> int
(** The origin's crash–restart incarnation, 0 for a stack that never
    crashed; bumped by {!restart}. *)

val restart : ?src:int -> t -> bytes
(** Come back {e cold} after a crash: every open flow is dropped without a
    finish announcement (a dead node cannot send one — peers learn of the
    loss from the JOIN instead), the origin's streams restart at sequence
    zero under a bumped incarnation, and the encoded {!Wire.join}
    announcement to broadcast rack-wide is returned. [src] (default 0)
    fills the JOIN's node field. Charged to {!reliability_bytes_sent} at
    broadcast fan-out. *)

val snapshot_request : ?requester:int -> t -> root:int -> bytes
(** The encoded {!Wire.snapshot_req} asking [root] for a full-state
    catch-up after {!restart}; the origin answers with {!sync_view}.
    Charged to {!reliability_bytes_sent} (unicast, no fan-out). *)

val note_control_loss : t -> sent:int -> lost:int -> unit
(** Feed one observation interval of control-transport statistics into the
    loss EWMA ({!Congestion.Overload.Loss_headroom.step}, the simulator's
    step too); updates {!effective_headroom} and the allocator so the next
    {!recompute} reserves more under loss. Raises [Invalid_argument] unless
    [0 <= lost <= sent]. *)

val reliability_bytes_sent : t -> int
(** Wire bytes of the loss-tolerance machinery: the 8-byte sequencing
    extension per broadcast replica, digest beacons, NACK-answering
    replays and full-state syncs. *)

val loss_ewma : t -> Util.Units.fraction
(** Current control-loss estimate in [\[0, 1\]]. *)

val effective_headroom : t -> Util.Units.fraction
(** The loss-scaled headroom the allocator is using now. *)

val syncs_sent : t -> int
val event_retransmits : t -> int

val notify_failure : t -> flow_id list
(** Full failure response; call after the topology's down-state changed
    ({!Topology.fail_link} / {!Topology.fail_node}). Repairs broken
    broadcast trees (charging the FIB re-announcements to
    {!control_bytes_sent}), closes every open flow whose endpoint is dead
    or unreachable (announced as a flow-finish; their ids are returned in
    ascending order), re-paths the surviving flows over the surviving
    graph — marking the allocator dirty — and finally makes the §3.2
    re-announcement: every surviving flow is re-broadcast as a start
    (observable via {!on_broadcast}), followed by a demand update for
    every flow with a declared demand or a live demand estimator. Call
    {!recompute} afterwards to reconverge the allocations. *)
