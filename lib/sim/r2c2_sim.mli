(** Packet-level simulation of the R2C2 stack (paper §3, §5.2).

    Senders pace each flow with a token bucket at its allocated rate and
    source route every packet. Flow start/finish events travel as real
    16-byte broadcast packets over per-source spanning trees; once a flow's
    start broadcast has reached every node it joins the global rate
    computation, which runs periodically every [recompute_interval_ns]
    (§3.3.2). Until then the flow sends into the bandwidth headroom.

    Two entry points: {!run} simulates a pre-generated workload;
    {!create}/{!start_flow}/{!run_engine} expose the simulator as a handle
    so applications can start flows dynamically (e.g. an RPC server
    answering requests mid-simulation). *)

type control =
  | Global_epoch
      (** one rate computation per epoch over the globally-visible flow set,
          applied at every sender — a fast, faithful approximation (views
          diverge for less than a broadcast time, far below rho) *)
  | Per_node
      (** the paper's literal design: every sender maintains its own view of
          the traffic matrix from the broadcast packets it receives and runs
          its own water-filling for its own flows *)

type config = {
  link_gbps : Util.Units.gbps;
  headroom : Util.Units.fraction;
  recompute_interval_ns : int;
  queue_capacity : int;  (** bytes per output queue; [max_int] = unbounded *)
  control : control;
  reselect_interval_ns : int option;
      (** §3.4: when set, flows alive for at least one interval are
          periodically re-assigned RPS or VLB by the GA routing selector,
          and the new assignment is advertised in one batched broadcast *)
  rtx_timeout_ns : int;
      (** initial per-packet retransmission timeout; it doubles per
          retransmission of the same packet up to 1 ms, and a packet lost
          again after 30 retransmissions aborts its flow *)
  reliable_bcast : bool;
      (** loss-tolerant control plane: every flow-event broadcast carries a
          per-(source, tree) sequence number, receivers run windows with
          NACK-based repair from the origin's replay log, and sources
          beacon periodic anti-entropy digests whose state hash triggers a
          full-state sync on genuine divergence *)
  digest_interval_ns : int;  (** anti-entropy beacon period per source *)
  bcast_log_cap : int;  (** origin replay-log depth per tree *)
  control_loss : Util.Units.fraction;
      (** chaos: per-hop control-packet loss probability, [0, 1) *)
  control_reorder : Util.Units.fraction;
      (** per-hop extra-delay (reorder) probability *)
  control_dup : Util.Units.fraction;  (** per-hop duplication probability *)
  queue_high_watermark : int;
      (** overload detection: a link whose queue exceeds this many bytes is
          flagged overloaded; [max_int] (the default) disables detection and
          keeps the event stream bit-identical to a build without it *)
  queue_low_watermark : int;
      (** hysteresis: the flag clears only once the queue drains to this *)
  overload_control : bool;
      (** master switch for strict-priority admission shedding, PAUSE
          backpressure and the waterfill class reserve; needs
          [queue_high_watermark] to be armed to ever see an overloaded
          epoch. Its constants: a congested receiver emits at most one
          PAUSE per 50 µs; backpressure covers classes numerically >= 1,
          so class 0 is never paced; each PAUSE level halves the pacing
          scale, floored at 0.05, and each clean epoch adds 0.1 back; the
          shed floor re-admits one class after 3 consecutive clean epochs;
          the waterfill withholds 20% of every link's capacity from
          classes numerically >= 1 *)
  engine_backend : Engine.backend;
      (** event-queue implementation; [Calendar] (the default) is the O(1)
          wheel, [Binary_heap] the reference queue kept for differential
          testing — both pop in (time, scheduling order), so results must
          be identical *)
  seed : int;
}

val default_config : config
(** The {!Topology} link speed and headroom, rho = 500 µs, unbounded
    queues, global-epoch control, 50 µs
    retransmission timeout, seed 1. Reliable broadcast off, digests every
    100 µs, 64 Ki replay log, no chaos.

    Fixed for every run: the {!Topology} MTU, hop latency and broadcast
    trees per source; failure detection takes {!detection_delay}; a gap
    is NACKed (and re-NACKed) every 20 µs; under reliable broadcast the
    waterfill reserves [min 0.30 (headroom + 2 * loss EWMA)] instead of
    the static [headroom], so stale views overbook less under loss. *)

val rejoin_retry_ns : int
(** 500 µs: the period between JOIN re-announcements while a restarted
    node is still catching up. *)

val detection_delay : config -> Topology.t -> int
(** The failure-detection delay in ns (§3.2 topology discovery): twice the
    time a 16-byte broadcast packet needs to cross the rack diameter at
    [link_gbps]. A fault is detected this long after it happens. *)

type failure = {
  kind : string;
      (** ["link"], ["node"], ["restore-link"], ["crash"] or ["restart"],
          after the {!fault} that made it *)
  fail_ns : int;  (** when the physical event happened *)
  detect_ns : int;  (** when topology discovery surfaced it *)
  mutable reconverge_ns : int;
      (** first rate epoch at or after detection — every allocation reflects
          the new topology from here on; -1 if the run ended before then *)
  mutable aborted : int;  (** flows this event killed (dead endpoint) *)
  mutable repaired : int;  (** broadcast trees rebuilt at detection *)
}

type result = {
  metrics : Metrics.t;
  max_queue : int array;  (** per-link peak occupancy, bytes *)
  drops : int;
  data_wire_bytes : Util.Units.bytes;
  control_wire_bytes : Util.Units.bytes;
  recomputes : int;  (** rate recomputation rounds executed *)
  rate_updates : (int * Util.Units.gbps) list;
      (** (time ns, allocated rate) samples *)
  reselections : int;  (** §3.4 routing-reselection rounds executed *)
  flows_rerouted : int;  (** flows whose protocol a reselection changed *)
  blackholes : int;  (** packets of any kind destroyed by dead links/nodes *)
  blackholed_bytes : int;  (** their wire bytes *)
  injected_payload : int;
      (** payload bytes of every Data transmission, retransmissions included *)
  delivered_payload : int;
      (** payload bytes reaching their destination, duplicates included —
          [injected = delivered + dropped + blackholed] always holds *)
  dropped_payload : int;  (** payload lost to queue tail drops *)
  blackholed_payload : int;  (** payload destroyed by failures *)
  retransmissions : int;  (** Data packets re-sent after a loss *)
  aborted_flows : int list;
      (** flows killed by failures (dead endpoint or retries exhausted),
          ascending; they count as neither completed nor in-flight *)
  failures : failure list;  (** chronological fault-injection records *)
  tree_repairs : int;  (** broadcast trees rebuilt over the whole run *)
  ctrl_lost : int;  (** control packets destroyed by chaos injection *)
  ctrl_lost_bytes : int;
  ctrl_reordered : int;  (** control packets given extra per-hop delay *)
  ctrl_dupped : int;  (** control packets duplicated in flight *)
  blackholed_data_bytes : int;  (** Data/Ack share of [blackholed_bytes] *)
  blackholed_ctrl_bytes : int;  (** control share of [blackholed_bytes] *)
  nacks_sent : int;  (** retransmission requests sent by receive windows *)
  event_retransmits : int;  (** origin replays answering NACKs *)
  sync_requests : int;  (** full-state syncs requested (hash divergence) *)
  syncs_sent : int;
  sync_bytes : int;  (** full-state repair traffic, wire bytes at origin *)
  dup_events_absorbed : int;
      (** broadcast deliveries absorbed as duplicates by receive windows *)
  divergence_epochs : int;
      (** rate epochs during which at least two alive nodes held different
          traffic-matrix views (Per_node) *)
  reconverge_samples : int list;
      (** ns from each first divergent epoch to the next epoch where every
          view was identical again *)
  terminal_diverged : int;
      (** nodes still disagreeing with the modal view when the run ended —
          0 is the steady-state correctness criterion *)
  loss_ewma : Util.Units.fraction;  (** final observed control-loss estimate *)
  effective_headroom : Util.Units.fraction;
      (** final loss-scaled waterfill headroom *)
  flaky_lost : int;  (** packets lost to gray-failure (flaky-link) injection *)
  flaky_lost_bytes : int;
  quarantines : int;  (** Healthy/Probation -> Quarantined transitions *)
  probations : int;  (** Quarantined -> Probation transitions *)
  recoveries : int;  (** Probation -> Healthy transitions *)
  joins_sent : int;  (** JOIN announcements sent, retries included *)
  rejoins : (int * int * int) list;
      (** [(node, restart_ns, caught_up_ns)] per completed rejoin *)
  rejoins_pending : int;
      (** restarted nodes still catching up when the run ended — 0 is the
          rejoin-protocol correctness criterion *)
  shed_flows : int;
      (** flows refused by admission control; they inject nothing, so the
          byte-conservation identity is unaffected *)
  shed_payload : int;  (** payload bytes the shed flows would have carried *)
  pauses_sent : int;  (** PAUSE packets emitted by congested receivers *)
  pauses_received : int;  (** PAUSEs that reached and paced their sender *)
  overload_epochs : int;
      (** rate epochs that saw at least one link above the high watermark *)
  overloaded_links : int;  (** links still flagged when the run ended *)
}

(** {2 Handle API — dynamic workloads} *)

type t

val create : config -> Topology.t -> t
(** A fresh rack simulation at time 0. *)

val engine : t -> Engine.t
(** The simulation clock; use [Engine.at]/[Engine.after] to script events
    (e.g. future {!start_flow} calls). *)

val metrics : t -> Metrics.t
val topology : t -> Topology.t

val start_flow :
  ?weight:int ->
  ?priority:int ->
  ?protocol:Routing.protocol ->
  ?demand_gbps:Util.Units.gbps ->
  ?on_complete:(int -> unit) ->
  t ->
  src:int ->
  dst:int ->
  size:int ->
  int
(** Open a flow {e at the current simulation time}: broadcasts the start
    event and begins transmitting immediately (§3.3.2). [demand_gbps]
    marks a host-limited flow; [on_complete] fires (with the flow id) when
    the last byte is delivered, and never for a flow a failure aborts.
    Returns the flow id. Raises [Invalid_argument] when
    {!Workload.Flowgen.check_flow} does (an endpoint that is not a host,
    [src = dst], a non-positive [size]), for a [weight] outside 1..255 or
    a [priority] outside 0..255 (the range the start broadcast carries),
    and for a [dst] that [src] cannot reach ({!Routing.fractions}); a
    refused call consumes no flow id. A flow the admission gate sheds
    takes an id and is never routed. *)

val run_engine : ?until_ns:int -> t -> unit
(** Process events until the rack goes idle (or [until_ns]). Can be called
    repeatedly as more flows are scripted. *)

(** {2 Fault injection (§3.2)} *)

type fault =
  | Fail_link of int * int
      (** the cable between two adjacent vertices dies, both directions *)
  | Restore_link of int * int  (** the cable comes back *)
  | Fail_node of int
      (** the vertex and all its cables die, keeping its state; flows to or
          from it are aborted at detection and reported in [aborted_flows] *)
  | Crash of int
      (** a state-losing node failure: receive windows, traffic-matrix view
          and sender soft state are wiped at the crash instant *)
  | Restart of int
      (** the node comes back {e cold} and runs the rejoin protocol: a JOIN
          broadcast carrying a bumped origin incarnation (every receiver
          still on an older one re-keys its windows for that root and drops
          its pre-crash flows), plus per-origin snapshot requests over the
          anti-entropy full-state sync path. The JOIN is re-announced every
          {!rejoin_retry_ns} until the node is sequence-caught-up with
          every reachable origin, at which point {!Metrics.note_rejoin}
          stamps it. *)
  | Flaky of {
      u : int;
      v : int;
      loss : Util.Units.fraction;
      spike : Util.Units.fraction;
      spike_ns : int option;  (** extra latency of a spike; default 2 µs *)
    }
      (** a gray failure: the cable stays up but loses a [loss] share of
          its traversals and spikes the latency of a [spike] share *)
  | Unflaky of int * int  (** the cable is clean again *)
  | Control_chaos of {
      loss : Util.Units.fraction;
      reorder : Util.Units.fraction;
      dup : Util.Units.fraction;
    }
      (** retune the per-hop control-packet chaos rates (e.g. start
          lossless, degrade, recover); the chaos RNG continues across
          retunes, so runs stay seed-deterministic *)

val inject_at : t -> ns:int -> fault -> unit
(** Schedule [fault] at simulation time [ns]. Raises [Invalid_argument],
    before anything is scheduled, for a cable between vertices that are
    not adjacent, a node that is not a vertex, a rate outside [[0, 1)], a
    negative [spike_ns], or an [ns] in the past.

    For the link and node faults the fabric state flips at [ns]
    (in-flight packets on a dead cable are blackholed, senders keep using
    stale paths), and one detection delay later the control plane reacts:
    broadcast trees are repaired, flows with a dead endpoint are aborted,
    survivors are re-pathed onto the surviving graph and re-announced, and
    the next rate epoch reconverges the allocations. Each of them leaves a
    {!failure} record. Lost packets are recovered by per-packet
    retransmission: the [rtx_timeout_ns] timer doubles per retransmission
    of the same packet up to 1 ms.

    A flaky cable is watched by a per-neighbor EWMA health estimator
    (ticking every 50 µs once a flaky link exists, weight 0.3 on the
    newest interval). It feeds the {!Routing} quarantine state machine,
    which {e demotes} — rather than deletes — suspect cables whose loss
    estimate exceeds 2% from spraying fractions and VLB waypoint choice,
    with probation-based unquarantine (500 µs dwell in quarantine, and
    again in probation). *)

val link_health : t -> int -> int -> Routing.health
(** Current quarantine state of the cable, for monitors and tests. *)

val net : t -> Net.t
(** The underlying fabric — chaos-scenario invariant monitors hang their
    observation taps off it. *)

val results : t -> result
(** Snapshot of the statistics so far. *)

(** {2 Control-plane reliability introspection}

    Accessors used by the loss-sweep bench and the reconvergence tests;
    all of them are pure observers. *)

val control_converged : t -> bool
(** Every alive node is sequence-caught-up with every reachable origin and
    (Per_node) believes exactly the origin's live-flow set. *)

val diverged_nodes : t -> int
(** Alive nodes currently disagreeing with the modal view hash; 0 when the
    control plane is consistent (always 0 under [Global_epoch]). *)

val node_view_ids : t -> node:int -> int list
(** The flow ids in the node's view, ascending (Per_node only). *)

val source_view_hash : ?tree:int -> t -> node:int -> root:int -> int
(** The {!Replicas.id_hash} set hash of the flows sourced at [root] in the
    node's view, or with [tree] of those riding that tree — the value
    [root]'s digests of [tree] are checked against (Per_node; 0
    otherwise). Kept in O(1) by every view write; a test observer that
    changes nothing the simulation can see. *)

val flow_tree : t -> int -> int
(** The broadcast tree carrying every event of a flow (reliable mode); -1
    for an unknown flow or one whose events ride no fixed tree. *)

val node_allocations : t -> node:int -> (int * Util.Units.byte_rate) array
(** The full rate vector the node computes from its current view — every
    flow it believes exists, in ascending id order. Nodes with identical
    views return byte-identical vectors (Per_node only). *)

val effective_headroom : t -> Util.Units.fraction

(** {2 Overload-control introspection} *)

val shed_floor : t -> int
(** Admission's current shed floor: classes with [priority >= shed_floor]
    are being refused; [Metrics.max_class] when nothing is shed (or the
    controller is off). *)

val pacer_scale : t -> node:int -> float
(** The node's current backpressure pacing multiplier in [[0.05, 1]]; 1
    when the controller is off. *)

(** {2 Batch API — pre-generated workloads} *)

val run :
  ?demand_of:(int -> Workload.Flowgen.spec -> Util.Units.gbps option) ->
  ?until_ns:int ->
  config ->
  Topology.t ->
  Workload.Flowgen.spec list ->
  result
(** Simulate the flow list (sorted by arrival) to completion (or
    [until_ns]); flow ids equal list positions and every flow is routed
    with RPS. [demand_of] marks host-limited flows with their maximum
    rate in Gbps (§3.3.2) — such a flow never injects above its demand and
    the rate computation hands its unused share to others. *)
