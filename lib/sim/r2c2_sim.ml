type control = Global_epoch | Per_node

module U = Util.Units
module Inc = Congestion.Waterfill.Inc

type config = {
  link_gbps : U.gbps;
  headroom : U.fraction;
  recompute_interval_ns : int;
  queue_capacity : int;
  control : control;
  reselect_interval_ns : int option;
      (** §3.4: when set, long flows are periodically re-assigned a routing
          protocol (RPS vs VLB) by the GA selector *)
  rtx_timeout_ns : int;  (** initial per-packet retransmission timeout *)
  reliable_bcast : bool;
      (** sequence every flow-event broadcast, run receive windows with
          NACK repair and periodic anti-entropy digests *)
  digest_interval_ns : int;  (** anti-entropy beacon period per source *)
  bcast_log_cap : int;  (** origin replay-log depth per tree *)
  control_loss : U.fraction;  (** per-hop control-packet loss probability *)
  control_reorder : U.fraction;  (** per-hop extra-delay (reorder) probability *)
  control_dup : U.fraction;  (** per-hop duplication probability *)
  (* -- SLO-guarded overload control; every default leaves it off -- *)
  queue_high_watermark : int;
      (** link-queue bytes above which the link counts as overloaded;
          [max_int] (the default) disables detection entirely *)
  queue_low_watermark : int;  (** hysteresis: overload clears only below this *)
  overload_control : bool;
      (** master switch for admission shedding and PAUSE backpressure *)
  engine_backend : Engine.backend;
      (** event-queue implementation; [Calendar] is the production O(1)
          wheel, [Binary_heap] the reference for differential tests *)
  seed : int;
}

(* Protocol constants: every caller runs with the same value, so they are
   not config fields. *)

(* Under overload control the waterfill withholds [class_reserve] of every
   link's capacity from classes >= [reserve_priority]. *)
let class_reserve = U.fraction 0.2
let reserve_priority = 1

(* Per-packet retransmission: the timeout doubles per attempt up to
   [rtx_cap_ns]; a packet re-sent [rtx_max_retries] times aborts its
   flow. *)
let rtx_cap_ns = 1_000_000
let rtx_max_retries = 30

let rtx_timeout_ns cfg ~attempt =
  let t = float_of_int cfg.rtx_timeout_ns *. (2.0 ** float_of_int attempt) in
  min rtx_cap_ns (int_of_float (Float.min t 1e18))

(* Gap detection -> NACK send delay (and between retries). *)
let nack_delay_ns = 20_000

(* Gray failures: the extra latency of a spiked hop on a flaky link, unless
   the injection call overrides it; the per-link loss-EWMA estimator period
   and the weight of its newest interval; the loss EWMA above which a cable
   is quarantined; and the dwell in quarantine before probation, and in
   probation before the recover/re-quarantine verdict. *)
let flaky_spike_ns = 2_000
let health_interval_ns = 50_000
let health_alpha = 0.3
let quarantine_loss_threshold = 0.02
let probation_ns = 500_000

(* A restarted node re-announces its JOIN at this period until it has
   caught up — a lost JOIN or snapshot must not strand the rejoin. *)
let rejoin_retry_ns = 500_000

(* Overload control: a congested receiver sends at most one PAUSE per
   [pause_interval_ns]; only classes numerically >= [pause_class] are paced
   and trigger pauses, so higher classes are never slowed by backpressure.
   The pacers and the shed floor run with [Overload.Pacer]'s and
   [Overload.Admission]'s constants. *)
let pause_interval_ns = 50_000
let pause_class = 1

let default_config =
  {
    link_gbps = Topology.link_gbps;
    headroom = Topology.headroom;
    recompute_interval_ns = 500_000;
    queue_capacity = max_int;
    control = Global_epoch;
    reselect_interval_ns = None;
    rtx_timeout_ns = 50_000;
    reliable_bcast = false;
    digest_interval_ns = 100_000;
    bcast_log_cap = 65536;
    control_loss = U.fraction 0.0;
    control_reorder = U.fraction 0.0;
    control_dup = U.fraction 0.0;
    queue_high_watermark = max_int;
    queue_low_watermark = 0;
    overload_control = false;
    engine_backend = Engine.Calendar;
    seed = 1;
  }

type failure = {
  kind : string;  (** "link" | "node" | "restore-link" | "crash" | "restart" *)
  fail_ns : int;
  detect_ns : int;
  mutable reconverge_ns : int;  (** -1 until the first post-detection rate epoch *)
  mutable aborted : int;  (** flows dropped because an endpoint died *)
  mutable repaired : int;  (** broadcast trees rebuilt at detection *)
}

type result = {
  metrics : Metrics.t;
  max_queue : int array;
  drops : int;
  data_wire_bytes : U.bytes;
  control_wire_bytes : U.bytes;
  recomputes : int;
  rate_updates : (int * U.gbps) list;
  reselections : int;
  flows_rerouted : int;
  blackholes : int;
  blackholed_bytes : int;
  injected_payload : int;
  delivered_payload : int;
  dropped_payload : int;
  blackholed_payload : int;
  retransmissions : int;
  aborted_flows : int list;
  failures : failure list;
  tree_repairs : int;
  (* control-plane reliability *)
  ctrl_lost : int;
  ctrl_lost_bytes : int;
  ctrl_reordered : int;
  ctrl_dupped : int;
  blackholed_data_bytes : int;
  blackholed_ctrl_bytes : int;
  nacks_sent : int;
  event_retransmits : int;  (** origin replays answering NACKs *)
  sync_requests : int;
  syncs_sent : int;
  sync_bytes : int;  (** full-state repair traffic, wire bytes at origin *)
  dup_events_absorbed : int;  (** deliveries deduped by receive windows *)
  divergence_epochs : int;  (** rate epochs with >1 distinct node view *)
  reconverge_samples : int list;
      (** ns from first divergent epoch to the next all-identical one *)
  terminal_diverged : int;  (** nodes still diverged when the run ended *)
  loss_ewma : U.fraction;
  effective_headroom : U.fraction;
  (* robustness: gray failures and crash-restart *)
  flaky_lost : int;  (** packets lost to flaky-link injection *)
  flaky_lost_bytes : int;
  quarantines : int;  (** Healthy/Probation -> Quarantined transitions *)
  probations : int;
  recoveries : int;  (** Probation -> Healthy transitions *)
  joins_sent : int;  (** JOIN announcements, retries included *)
  rejoins : (int * int * int) list;
      (** (node, restart ns, caught-up ns) per completed rejoin *)
  rejoins_pending : int;  (** restarted nodes not yet caught up at run end *)
  (* robustness: overload control *)
  shed_flows : int;  (** flows refused by admission control *)
  shed_payload : int;  (** payload bytes those flows would have injected *)
  pauses_sent : int;  (** PAUSE packets emitted by congested receivers *)
  pauses_received : int;  (** PAUSEs that reached their paced sender *)
  overload_epochs : int;  (** rate epochs with at least one overloaded link *)
  overloaded_links : int;  (** links still above the watermark at run end *)
}

type fstate = {
  idx : int;
  src : int;
  dst : int;
  mutable proto : Routing.protocol;
  weight : float;
  priority : int;
  mutable wf_links : Routing.row;
  demand : U.byte_rate option;  (** host cap, wire bytes per ns *)
  started_ns : int;
  mutable remaining : int;  (** payload bytes not yet injected *)
  mutable seq : int;
  mutable rate : float;  (** allocated rate, wire bytes per ns *)
  mutable last_inject : int;
  mutable inject_gen : int;
  mutable visible : bool;  (** start broadcast reached every node *)
  mutable done_sending : bool;
  rtx : int Util.Itbl.t;  (** seq -> retransmission attempts so far *)
  mutable btree : int;
      (** reliable mode: the tree carrying every event of this flow, so the
          per-(source, tree) window orders finish after start; -1 until the
          start broadcast picks one *)
  mutable live : bool;  (** neither completed nor aborted *)
  mutable starts_seen : int;  (** receipts of the latest start broadcast *)
  mutable on_complete : (int -> unit) option;  (** fired once, at completion *)
}

(* A replay-log entry: the event and its wire size, and when a NACK last
   re-flooded it. The stamp is evicted with the entry. *)
type logged = { bcast_id : int; lbytes : int; mutable replayed_ns : int }

let logged bcast_id bytes = { bcast_id; lbytes = bytes; replayed_ns = min_int }

(* Per-cable gray-failure health estimator state, indexed by the canonical
   directed link id (src < dst); allocated only once a flaky link exists so
   clean runs never touch it. *)
type hstate = {
  ewma : float array;  (* per-cable loss-rate EWMA *)
  prev_tx : int array;  (* flaky_link_stats watermarks from the last tick *)
  prev_lost : int array;
  since : int array;  (* ns of the cable's last health transition *)
}

type t = {
  cfg : config;
  topo : Topology.t;
  eng : Engine.t;
  net : Net.t;
  bcast : Broadcast.t;
  rctx : Routing.ctx;
  rng : Util.Rng.t;
  root_rng : Util.Rng.t;
  mtrcs : Metrics.t;
  cap_bytes_ns : float;  (** link capacity, wire bytes per ns (hot path, raw) *)
  mutable flows : fstate option array;
      (** the flow table, indexed by flow id: ids are handed out in start
          order, and a shed flow's slot stays [None]. Grown by doubling. *)
  mutable live_flows : int;  (** flows with [live] set *)
  nverts : int;
  reps : Replicas.t;
      (** every node's receive windows (reliable mode) and, under Per_node,
          its view of the traffic matrix: one (node, origin, tree) table *)
  mutable next_id : int;
  mutable recomputes : int;
  mutable rate_updates : (int * U.gbps) list;
  mutable rate_update_count : int;
  mutable loops : int;  (** one bit per periodic loop now scheduled *)
  mutable reselections : int;
  mutable flows_rerouted : int;
  alloc : Inc.t;
      (** the one water-filler, with the run's headroom and class reserve.
          Global_epoch feeds it the visible, still-sending flow set as
          events arrive, so a clean epoch is skipped in O(1); Per_node
          refills it with each sender's believed flows *)
  mutable epoch_dirty : bool;
      (** Per_node: any view/flow event since the last epoch; a clean epoch
          leaves every node's rates untouched and is skipped *)
  mutable bcast_target : int;
      (** copies needed for global visibility: alive vertices - 1 *)
  mutable injected_payload : int;  (** payload bytes of every transmission *)
  mutable delivered_payload : int;  (** payload arriving at destinations, pre-dedup *)
  mutable dropped_payload : int;  (** payload lost to queue tail drops *)
  mutable blackholed_payload : int;  (** payload destroyed by dead links/nodes *)
  mutable retransmissions : int;
  mutable aborted : int list;  (** newest first *)
  mutable failures : failure list;  (** newest first *)
  (* -- control-plane reliability (reliable_bcast) -- *)
  origins : logged Rbcast.origin array;  (** per source *)
  chaos_on : bool;
  mutable nacks_sent : int;
  mutable event_retransmits : int;
  mutable sync_requests : int;
  mutable syncs_sent : int;
  mutable sync_bytes : int;
  (* -- view-divergence watchdog bookkeeping -- *)
  mutable divergence_epochs : int;
  mutable diverged_since : int;  (** ns of first divergent epoch; -1 clean *)
  mutable reconverge_samples : int list;  (** newest first *)
  (* -- graceful degradation -- *)
  mutable loss_ewma : float;
  mutable prev_ctrl_hops : int;
  mutable prev_ctrl_lost : int;
  (* -- crash-restart rejoin -- *)
  pending_rejoins : int Util.Itbl.t;  (* node -> restart ns *)
  mutable joins_sent : int;
  (* -- gray-failure health estimation -- *)
  mutable health : hstate option;
  mutable quarantines : int;
  mutable probations : int;
  mutable recoveries : int;
  (* -- overload control (admission shedding + PAUSE backpressure) -- *)
  admission : Congestion.Overload.Admission.t option;
  pacers : Congestion.Overload.Pacer.t array;  (** per sender node *)
  pause_cls : int array;
      (** lowest class the node's last PAUSE covers; [max_int] = never paused *)
  last_pause : int array;  (** per receiver: ns of its last emitted PAUSE *)
  mutable shed_flows : int;
  mutable shed_payload : int;
  mutable pauses_sent : int;
  mutable pauses_received : int;
  mutable overload_epochs : int;
}

let header = Wire.data_header_size

let engine t = t.eng
let metrics t = t.mtrcs
let topology t = t.topo

let find_flow t id = if id >= 0 && id < t.next_id then t.flows.(id) else None

(* Hand out the next flow id, growing the table to hold its slot. *)
let next_flow_id t =
  let id = t.next_id in
  if id = Array.length t.flows then begin
    let grown = Array.make (2 * id) None in
    Array.blit t.flows 0 grown 0 id;
    t.flows <- grown
  end;
  t.next_id <- id + 1;
  id

(* Live flows in id order, which is start order. *)
let iter_live t f =
  for id = 0 to t.next_id - 1 do
    match t.flows.(id) with Some st when st.live -> f st | _ -> ()
  done

(* -- epoch dirty tracking -------------------------------------------------- *)

(* Every event that can change the next rate computation funnels through
   these: the flow set (visibility, completion), demands and routes. *)

let add_to_alloc t st =
  Inc.add_flow ~weight:st.weight ~priority:st.priority ?demand:st.demand t.alloc ~id:st.idx
    st.wf_links

(* Global_epoch only: whether [st] is in the incrementally fed allocator. *)
let fed t st = t.cfg.control = Global_epoch && Inc.mem t.alloc ~id:st.idx

let mark_visible t st =
  if not st.visible then begin
    st.visible <- true;
    t.epoch_dirty <- true;
    if t.cfg.control = Global_epoch && not st.done_sending then add_to_alloc t st
  end

let flow_done_sending t st =
  if not st.done_sending then begin
    st.done_sending <- true;
    t.epoch_dirty <- true;
    if fed t st then Inc.remove_flow t.alloc ~id:st.idx
  end

(* Re-path a flow under [proto] over the current graph; its allocator row
   follows. *)
let reroute t st proto =
  st.proto <- proto;
  st.wf_links <- Routing.fractions t.rctx proto ~src:st.src ~dst:st.dst;
  t.epoch_dirty <- true;
  if fed t st then Inc.set_links t.alloc ~id:st.idx st.wf_links

(* After a rate epoch executes, every allocation reflects all events known
   so far — including any detected failure: that is the reconvergence
   instant the recovery metrics report. *)
let stamp_reconvergence t =
  let now = Engine.now t.eng in
  List.iter
    (fun fr -> if fr.reconverge_ns < 0 && fr.detect_ns <= now then fr.reconverge_ns <- now)
    t.failures

(* A live flow completed or was aborted: the next epoch allocates without
   it. With none left, a detected failure is trivially reconverged — the
   periodic loop is about to stop and would never stamp it. *)
let retire t st =
  st.live <- false;
  t.live_flows <- t.live_flows - 1;
  t.epoch_dirty <- true;
  if t.live_flows = 0 then stamp_reconvergence t

(* -- reliable broadcast: windows, NACK repair, anti-entropy ---------------- *)

let win_key ~root ~tree = (root * Topology.trees_per_source) + tree
let window t ~node ~root ~tree = Replicas.window t.reps ~replica:node ~origin:root ~tree

(* JOIN announcements ride the broadcast fabric under a sentinel id well
   clear of flow events (ids >= 0) and batched reselection announcements
   (small negatives). *)
let bcast_id_join = min_int

let source_view_hash ?tree t ~node ~root =
  match tree with
  | None -> Replicas.hash t.reps ~replica:node ~origin:root
  | Some tree -> Replicas.tree_hash t.reps (window t ~node ~root ~tree)

(* Count one receipt of a live flow's start broadcast towards its global
   visibility. Odd ids are finish events and negative ids batched
   route-change announcements (§3.4); neither is counted. *)
let count_receipt t bcast_id =
  if bcast_id >= 0 && bcast_id land 1 = 0 then
    match find_flow t (bcast_id lsr 1) with
    | Some st when st.live ->
        st.starts_seen <- st.starts_seen + 1;
        (* [>=]: after a node failure the target shrinks to the alive count,
           and stale pre-failure copies may still arrive. *)
        if st.starts_seen >= t.bcast_target then mark_visible t st
    | _ -> ()

(* Apply one flow-event broadcast that reached a node on window [w] — the
   (node, root, tree) it arrived on: update the node's view of the traffic
   matrix (Per_node) and count the receipt. In reliable mode this runs
   only on window-accepted deliveries, so each node counts each event
   exactly once whatever the duplication rate. *)
let apply_bcast_event t w bcast_id =
  if t.cfg.control = Per_node && bcast_id >= 0 then begin
    t.epoch_dirty <- true;
    Replicas.apply t.reps w bcast_id
  end;
  count_receipt t bcast_id

(* Both ends of a control conversation are up and connected. *)
let connected t a b = Net.node_up t.net a && Net.node_up t.net b && Topology.reachable t.topo a b

(* A unicast control packet (NACK, sync, snapshot request, PAUSE) rides the
   ECMP shortest path that [key] picks, so one conversation keeps to one
   path. The sender takes its own reference to the route; the caller
   releases this one once it has sent. *)
let ctrl_route t ~key ~src ~dst =
  Net.intern_route t.net (Routing.ecmp_path t.rctx ~flow_id:key ~src ~dst)

(* A NACK with an empty range ([to_seq < from_seq]) is a full-state sync
   request — sent when a node is sequence-caught-up with an origin yet
   hashes to a different live-flow set. *)
let send_nack t ~node ~root ~tree ~from_seq ~to_seq =
  if connected t node root then begin
    if to_seq < from_seq then t.sync_requests <- t.sync_requests + 1
    else t.nacks_sent <- t.nacks_sent + 1;
    let route = ctrl_route t ~key:(win_key ~root ~tree) ~src:node ~dst:root in
    Net.send_nack t.net ~root ~tree ~from_seq ~to_seq ~requester:node
      ~bytes:Wire.nack_size ~route;
    Net.release_route t.net route
  end

(* The per-window repair timer: armed on the first sign of a gap (an
   out-of-order arrival or a digest advertising unseen sequences), it NACKs
   every open range after a short delay and re-arms until the window is
   whole — so a lost repair is simply requested again. *)
let rec schedule_nack t ~node ~root ~tree w =
  if Replicas.arm t.reps w then
    Engine.after t.eng nack_delay_ns (fun () -> fire_nack t ~node ~root ~tree w)

and fire_nack t ~node ~root ~tree w =
  Replicas.disarm t.reps w;
  if connected t node root then begin
    match Replicas.missing t.reps w with
    | [] -> ()
    | gaps ->
        List.iteri
          (fun i (a, b) ->
            if i < 4 then send_nack t ~node ~root ~tree ~from_seq:a ~to_seq:b)
          gaps;
        schedule_nack t ~node ~root ~tree w
  end

(* Full-state repair (Per_node): the origin ships its live flows, each with
   its tree, and per-tree last sequence numbers; the requester replaces its
   per-source view slice and fast-forwards the windows. Counted as repair
   traffic, in one packet of at most an MTU. *)
let send_sync t ~root ~requester =
  if t.cfg.control = Per_node && connected t root requester then begin
    let entries, last_seqs = Rbcast.snapshot t.origins.(root) in
    let bytes =
      min Topology.mtu
        (Wire.sync_size ~flows:(List.length entries) ~trees:Topology.trees_per_source)
    in
    t.syncs_sent <- t.syncs_sent + 1;
    t.sync_bytes <- t.sync_bytes + bytes;
    let route = ctrl_route t ~key:(root + (131 * requester)) ~src:root ~dst:requester in
    Net.send_sync t.net ~root ~entries ~last_seqs ~bytes ~route;
    Net.release_route t.net route
  end

(* Replace the per-source slice of the view with the origin's truth and
   jump every window past what the sync covers. *)
let apply_sync t ~node ~root ~entries ~last_seqs =
  if t.cfg.control = Per_node && Net.node_up t.net node then begin
    t.epoch_dirty <- true;
    Replicas.sync t.reps ~replica:node ~origin:root ~ids:entries ~last_seqs
      ~deliver:(apply_bcast_event t)
  end

(* A JOIN announcement from a restarted node: a newer incarnation re-keys
   every window for that root — wiping the pre-crash window state, which
   would otherwise absorb the fresh sequence space as duplicates — and
   forgets the joiner's pre-crash flows. The joiner pulls full state
   itself with snapshot requests, so receivers only reset here. *)
let handle_join t ~node ~joiner ~inc =
  let had_flows = Replicas.size t.reps ~replica:node ~origin:joiner > 0 in
  if Replicas.join t.reps ~replica:node ~origin:joiner ~inc = `Reset && had_flows then
    t.epoch_dirty <- true

(* -- data plane: token-bucket pacing and source routing ------------------- *)

let rec inject t st =
  (* A dead sender stops existing: no injections, no rescheduling. The flow
     is aborted when the failure is detected. *)
  if Net.node_up t.net st.src then begin
    let wire = min Topology.mtu (st.remaining + header) in
    let payload = wire - header in
    st.remaining <- st.remaining - payload;
    let last = st.remaining = 0 in
    if last then flow_done_sending t st;
    st.last_inject <- Engine.now t.eng;
    t.injected_payload <- t.injected_payload + payload;
    Metrics.note_first_tx t.mtrcs ~id:st.idx ~now:(Engine.now t.eng);
    let n = Routing.sample_into t.rctx t.rng st.proto ~src:st.src ~dst:st.dst in
    let route = Net.intern_prefix t.net (Routing.path_buffer t.rctx) n in
    Net.send_data t.net ~flow:st.idx ~seq:st.seq ~last ~bytes:wire ~route;
    Net.release_route t.net route;
    st.seq <- st.seq + 1;
    if not st.done_sending then schedule_injection t st
  end

and schedule_injection t st =
  st.inject_gen <- st.inject_gen + 1;
  let gen = st.inject_gen in
  let wire = min Topology.mtu (st.remaining + header) in
  (* A host-limited flow never injects above its demand, whatever the
     allocation says. *)
  let pace =
    match st.demand with
    | Some d -> Float.min st.rate (d : U.byte_rate :> float)
    | None -> st.rate
  in
  (* Backpressure: a paced sender scales the injection rate of its covered
     classes down by the AIMD pacer, floored like {!apply_rate} so a flow
     always trickles and can finish. *)
  let pace =
    if t.cfg.overload_control && st.priority >= t.pause_cls.(st.src) then
      Float.max (0.001 *. t.cap_bytes_ns)
        (pace *. Congestion.Overload.Pacer.scale t.pacers.(st.src))
    else pace
  in
  let gap = int_of_float (ceil (float_of_int wire /. pace)) in
  let tnext = max (Engine.now t.eng) (st.last_inject + gap) in
  Engine.at t.eng tnext (fun () ->
      if st.inject_gen = gen && not st.done_sending then inject t st)

(* -- control plane: broadcast and rate computation ------------------------ *)

(* Flood one control event from [root] down [tree]. The reliable plane
   sequences it on the origin's stream and logs it for NACK replay. *)
let flood t ~root ~tree ~bcast_id ~bytes =
  if t.cfg.reliable_bcast then begin
    let o = t.origins.(root) in
    let seq = Rbcast.send o ~tree (logged bcast_id bytes) in
    Net.send_bcast t.net ~seq ~inc:(Rbcast.incarnation o) ~root ~tree ~bcast_id ~bytes ()
  end
  else Net.send_bcast t.net ~root ~tree ~bcast_id ~bytes ()

let send_flow_broadcast t st event =
  (* Visibility counts the receipts of a start broadcast afresh. *)
  if event = Wire.Flow_start then st.starts_seen <- 0;
  let bcast_id = Replicas.event event st.idx in
  if t.cfg.reliable_bcast then begin
    (* Every event of a flow rides the tree picked at its start, so the
       per-(source, tree) window orders the finish after the start at
       every receiver. *)
    if event = Wire.Flow_start && st.btree < 0 then
      st.btree <- Broadcast.choose_tree t.bcast t.root_rng ~src:st.src;
    let o = t.origins.(st.src) and bytes = Wire.seq_broadcast_size in
    let seq = Rbcast.announce o ~tree:st.btree ~flow:st.idx event (logged bcast_id bytes) in
    Net.send_bcast t.net ~seq ~inc:(Rbcast.incarnation o) ~root:st.src ~tree:st.btree ~bcast_id
      ~bytes ()
  end
  else
    let tree = Broadcast.choose_tree t.bcast t.root_rng ~src:st.src in
    flood t ~root:st.src ~tree ~bcast_id ~bytes:Wire.broadcast_size

let apply_rate t st (r : U.byte_rate) =
  let r = Float.max (0.001 *. t.cap_bytes_ns) (r : U.byte_rate :> float) in
  if abs_float (r -. st.rate) > 1e-12 then begin
    st.rate <- r;
    if not st.done_sending then schedule_injection t st
  end;
  if t.rate_update_count < 10_000 then begin
    t.rate_update_count <- t.rate_update_count + 1;
    t.rate_updates <- (Engine.now t.eng, U.gbps (r *. 8.0)) :: t.rate_updates
  end

(* Water-filling over every flow the node believes exists — its view plus
   [own], flows it sources and so always knows — in ascending id order.
   [own] must be in descending id order. Between a crash and its detection
   a crashed sender's live flows are missing from its cleared view, and
   [own] still holds them. Refills the allocator with those flows and
   returns them; their rates are read from it. *)
let believed_allocation t ~node ~own =
  let ids = Replicas.believed t.reps ~replica:node in
  (* Merge from the top of both, so the result comes out ascending. *)
  let rec merge i own acc =
    match own with
    | st :: rest when i < 0 || st.idx > ids.(i) -> merge i rest (st :: acc)
    | st :: rest when st.idx = ids.(i) -> merge (i - 1) rest (st :: acc)
    | _ when i < 0 -> acc
    | _ -> merge (i - 1) own (match find_flow t ids.(i) with Some st -> st :: acc | None -> acc)
  in
  let flows = merge (Array.length ids - 1) own [] in
  Inc.clear t.alloc;
  List.iter (add_to_alloc t) flows;
  Inc.allocate t.alloc;
  flows

(* Per-node control (§3.3, the paper's actual design): every sender runs
   water-filling over its own broadcast-built view of the traffic matrix
   and rate-limits only its own flows. Views differ transiently — that is
   precisely what the headroom absorbs. Views only change when a broadcast
   delivery, completion or reroute happened since the last epoch
   ([epoch_dirty]); a quiet epoch is skipped outright. *)
let recompute_per_node t =
  (* Each node's still-sending flows, newest first. *)
  let own = Array.make t.nverts [] in
  iter_live t (fun st -> if not st.done_sending then own.(st.src) <- st :: own.(st.src));
  Array.iteri
    (fun node own ->
      if own <> [] then begin
        let flows = believed_allocation t ~node ~own in
        t.recomputes <- t.recomputes + 1;
        List.iter
          (fun st -> if st.src = node then apply_rate t st (Inc.rate t.alloc ~id:st.idx))
          flows
      end)
    own

(* Global-epoch approximation: every node would run the same water-filling
   over (nearly) the same visible flow set; run it once per epoch and apply
   the rates at the senders. The `ablation` bench compares this against
   Per_node. The incremental allocator is kept in sync by the visibility /
   completion / reroute events, so an epoch with no event returns the
   cached rates in O(1) and applies nothing. *)
let recompute_global t =
  if Inc.live_flows t.alloc > 0 && Inc.is_dirty t.alloc then begin
    t.recomputes <- t.recomputes + 1;
    Inc.allocate t.alloc;
    Inc.iter_rates t.alloc (fun ~id ~rate ->
        match find_flow t id with Some st when st.live -> apply_rate t st rate | _ -> ())
  end

(* Graceful degradation (§3.3): the headroom the waterfill reserves grows
   with the observed control-loss rate, so transiently stale views overbook
   less when the control plane is struggling. The estimate is an EWMA of
   the per-hop loss fraction over each rate epoch. *)
let update_loss_ewma t =
  if t.cfg.reliable_bcast then begin
    let hops = Net.ctrl_hops t.net and lost = Net.ctrl_lost t.net in
    let dh = hops - t.prev_ctrl_hops and dl = lost - t.prev_ctrl_lost in
    t.prev_ctrl_hops <- hops;
    t.prev_ctrl_lost <- lost;
    t.loss_ewma <-
      Congestion.Overload.Loss_headroom.step t.alloc ~headroom:t.cfg.headroom t.loss_ewma
        ~lost:dl ~sent:dh
  end

(* -- view-divergence watchdog --------------------------------------------- *)

(* Alive nodes whose traffic-matrix hash disagrees with the modal one. *)
let diverged_nodes t =
  if t.cfg.control <> Per_node then 0
  else begin
    let counts = Util.Itbl.create 8 in
    for node = 0 to t.nverts - 1 do
      if Net.node_up t.net node then begin
        let h = Replicas.replica_hash t.reps ~replica:node in
        Util.Itbl.replace counts h (1 + Option.value ~default:0 (Util.Itbl.find_opt counts h))
      end
    done;
    let modal = ref 0 and total = ref 0 in
    Util.Itbl.iter_sorted
      (fun _ n ->
        total := !total + n;
        if n > !modal then modal := n)
      counts;
    !total - !modal
  end

(* Every rate epoch, compare the traffic-matrix hash across alive nodes.
   Divergent epochs are counted and the span from first divergence to the
   next all-identical epoch is a reconvergence sample. Pure observation —
   repair itself is driven by NACKs and digests. *)
let note_divergence t =
  if t.cfg.control = Per_node && (t.cfg.reliable_bcast || t.chaos_on) then begin
    let now = Engine.now t.eng in
    if diverged_nodes t > 0 then begin
      t.divergence_epochs <- t.divergence_epochs + 1;
      if t.diverged_since < 0 then t.diverged_since <- now
    end
    else if t.diverged_since >= 0 then begin
      t.reconverge_samples <- (now - t.diverged_since) :: t.reconverge_samples;
      t.diverged_since <- -1
    end
  end

(* The recompute loop stops with the last flow, so a divergence healed only
   by the final finish events would never see its closing epoch there; the
   digest loop keeps watching until the control plane converges. *)
let close_reconvergence t =
  if t.cfg.control = Per_node && t.diverged_since >= 0 && diverged_nodes t = 0 then begin
    t.reconverge_samples <-
      (Engine.now t.eng - t.diverged_since) :: t.reconverge_samples;
    t.diverged_since <- -1
  end

(* One overload-controller tick per rate epoch: the watermark verdict
   drives the admission shed floor, and a clean epoch lets every pacer
   recover additively. *)
let overload_tick t =
  match t.admission with
  | None -> ()
  | Some adm ->
      let overloaded = Net.overloaded_links t.net > 0 in
      if overloaded then t.overload_epochs <- t.overload_epochs + 1;
      Congestion.Overload.Admission.note_epoch adm ~overloaded;
      if not overloaded then
        Array.iter Congestion.Overload.Pacer.note_clean_epoch t.pacers

let recompute t =
  overload_tick t;
  update_loss_ewma t;
  (match t.cfg.control with
  | Global_epoch -> recompute_global t
  | Per_node ->
      if t.epoch_dirty then begin
        t.epoch_dirty <- false;
        recompute_per_node t
      end);
  note_divergence t;
  stamp_reconvergence t

(* §3.4: periodic per-flow routing-protocol reselection. Long flows (alive
   for at least one reselection interval) are re-assigned RPS or VLB by the
   GA maximizing aggregate throughput; changed assignments are advertised
   in a single batched broadcast (up to 300 {flow, protocol} pairs per
   1500-byte packet, §3.4). *)
let reselect t interval =
  let now = Engine.now t.eng in
  let eligible = ref [] in
  iter_live t (fun st ->
      if (not st.done_sending) && now - st.started_ns >= interval then eligible := st :: !eligible);
  let sts = Array.of_list !eligible in
  if Array.length sts >= 2 then begin
    t.reselections <- t.reselections + 1;
    let selector =
      Genetic.Selector.make ~headroom:t.cfg.headroom t.rctx ~link_gbps:t.cfg.link_gbps
    in
    let flows = Array.map (fun st -> (st.src, st.dst)) sts in
    let current = Array.map (fun st -> st.proto) sts in
    let changed = ref 0 in
    (match
       Genetic.Selector.reselect ~pop_size:24 ~generations:6 selector t.rng ~flows ~current
     with
    | Some assignment ->
        Array.iteri
          (fun i st ->
            if assignment.(i) <> st.proto then begin
              incr changed;
              reroute t st assignment.(i)
            end)
          sts
    | None -> ());
    t.flows_rerouted <- t.flows_rerouted + !changed;
    if !changed > 0 then begin
      (* One batched route-change announcement: 16-byte header plus 5 bytes
         per {flow, protocol} pair, capped at an MTU. *)
      let bytes = min Topology.mtu (Wire.broadcast_size + (5 * !changed)) in
      let root = sts.(0).src in
      let tree = Broadcast.choose_tree t.bcast t.root_rng ~src:root in
      flood t ~root ~tree ~bcast_id:(-t.reselections) ~bytes
    end
  end

(* -- anti-entropy beacons and rejoin catch-up ----------------------------- *)

(* Every alive source beacons [(tree, epoch, last_seq, tree hash)] on each
   due stream: a tree whose last sequence moved since its previous digest,
   or a quiet one whose backoff ran out ([Rbcast.digest_round]). A receiver
   missing the tail of a burst — even its very last packet, which no gap
   could reveal — sees [last_seq] ahead of its window and NACKs. *)
let digest_round t =
  (* One send closure per round, not one per origin: [root] names the
     origin whose round it serves. *)
  let root = ref 0 in
  let send ~epoch ~tree ~last_seq ~hash =
    Net.send_digest_tree t.net ~root:!root ~tree ~epoch ~last_seq ~hash ~bytes:Wire.digest_size
  in
  Array.iteri
    (fun src o ->
      if Net.node_up t.net src then begin
        root := src;
        Rbcast.digest_round o send
      end)
    t.origins

(* The rejoin-completion criterion: the node is sequence-caught-up with
   every reachable origin and (Per_node) believes exactly their live-flow
   sets. Windows are read, never created: an absent one has seen nothing. *)
let node_caught_up t ~node =
  let ok = ref true in
  Array.iteri
    (fun root o ->
      if root <> node && connected t root node then begin
        for tree = 0 to Topology.trees_per_source - 1 do
          if Replicas.next_expected t.reps (window t ~node ~root ~tree) <= Rbcast.last_seq o ~tree
          then ok := false
        done;
        if
          t.cfg.control = Per_node
          && source_view_hash t ~node ~root <> Rbcast.state_hash o
        then ok := false
      end)
    t.origins;
  !ok

(* Global-knowledge convergence test, used only to decide when the digest
   loop may stop (and by tests): every alive node has caught up. Without
   the reliable machinery there are no origins, so it holds trivially. *)
let control_converged t =
  let ok = ref true in
  for node = 0 to t.nverts - 1 do
    if Net.node_up t.net node && not (node_caught_up t ~node) then ok := false
  done;
  !ok

(* Failure -> topology-discovery latency: twice the time a broadcast packet
   needs to cross the rack diameter, serialized at every hop as [Net]
   does. *)
let detection_delay cfg topo =
  let bits = U.bits_of_bytes (U.bytes (float_of_int Wire.broadcast_size)) in
  let tx = U.to_float (U.fill_time ~amount:bits ~rate:cfg.link_gbps) in
  2 * Topology.diameter topo * (Topology.hop_latency_ns + int_of_float (ceil tx))

(* Evaluated once per digest round: a pending rejoiner that has caught up
   gets its rejoin time stamped and leaves the pending set. *)
let check_rejoins t =
  if Util.Itbl.length t.pending_rejoins > 0 then begin
    let now = Engine.now t.eng in
    Array.iter
      (fun node ->
        (* Before the restart's detection instant the overlay still shows
           the node detached, so every origin would be skipped as
           unreachable and the catch-up check would pass vacuously —
           stamping a zero-length rejoin before the JOIN even went out. *)
        if
          now >= Util.Itbl.find t.pending_rejoins node + detection_delay t.cfg t.topo
          && Net.node_up t.net node && node_caught_up t ~node
        then begin
          let start = Util.Itbl.find t.pending_rejoins node in
          Util.Itbl.remove t.pending_rejoins node;
          Metrics.note_rejoin t.mtrcs ~node ~start ~finish:now
        end)
      (Util.Itbl.sorted_keys t.pending_rejoins)
  end

(* -- gray failures: the health estimator ------------------------------------ *)

(* One estimator tick: fold the last interval's per-cable flaky-loss rate
   into an EWMA and drive the {!Routing} quarantine state machine. An
   interval without samples decays the estimate, so an unflagged or idle
   cable drifts back towards health instead of pinning its last bad
   reading forever. Returns whether any cable is still demoted. *)
let health_tick t h =
  let now = Engine.now t.eng in
  let demoted = ref false in
  let nl = Topology.link_count t.topo in
  for l = 0 to nl - 1 do
    let u = Topology.link_src t.topo l and v = Topology.link_dst t.topo l in
    if u < v then begin
      let tx, lost = Net.flaky_link_stats t.net u v in
      let dtx = tx - h.prev_tx.(l) and dlost = lost - h.prev_lost.(l) in
      h.prev_tx.(l) <- tx;
      h.prev_lost.(l) <- lost;
      if dtx > 0 then
        h.ewma.(l) <-
          (health_alpha *. (float_of_int dlost /. float_of_int dtx))
          +. ((1.0 -. health_alpha) *. h.ewma.(l))
      else h.ewma.(l) <- (1.0 -. health_alpha) *. h.ewma.(l);
      (match Routing.link_health t.rctx u v with
      | Routing.Healthy ->
          if h.ewma.(l) > quarantine_loss_threshold then begin
            Routing.note_suspect t.rctx u v;
            t.quarantines <- t.quarantines + 1;
            h.since.(l) <- now
          end
      | Routing.Quarantined ->
          if now - h.since.(l) >= probation_ns then begin
            Routing.note_probation t.rctx u v;
            t.probations <- t.probations + 1;
            h.since.(l) <- now
          end
      | Routing.Probation ->
          if now - h.since.(l) >= probation_ns then begin
            (* The probation trickle kept sampling the cable; the verdict
               is whatever the estimator saw of it. *)
            if h.ewma.(l) > quarantine_loss_threshold then begin
              Routing.note_suspect t.rctx u v;
              t.quarantines <- t.quarantines + 1
            end
            else begin
              Routing.note_recovered t.rctx u v;
              t.recoveries <- t.recoveries + 1
            end;
            h.since.(l) <- now
          end);
      match Routing.link_health t.rctx u v with
      | Routing.Healthy -> ()
      | Routing.Probation | Routing.Quarantined -> demoted := true
    end
  done;
  !demoted

(* -- periodic loops --------------------------------------------------------- *)

(* The rate epoch, the anti-entropy beacon, §3.4 reselection and the
   gray-failure health estimator each run while they have work, so an idle
   rack leaves the event queue empty; [ensure] restarts a stopped loop.
   [t.loops] has one bit per running loop. *)
type loop = Recompute | Digest | Reselect | Health

let bit = function Recompute -> 1 | Digest -> 2 | Reselect -> 4 | Health -> 8

let period t = function
  | Recompute -> t.cfg.recompute_interval_ns
  | Digest -> t.cfg.digest_interval_ns
  | Reselect -> Option.value ~default:0 t.cfg.reselect_interval_ns
  | Health -> health_interval_ns

(* One round; true while the loop has work left. The beacon outlives the
   last flow until every rejoin and every view has caught up. *)
let round t loop =
  match loop with
  | Recompute ->
      recompute t;
      t.live_flows > 0
  | Digest ->
      close_reconvergence t;
      check_rejoins t;
      let busy =
        t.live_flows > 0 || Util.Itbl.length t.pending_rejoins > 0 || not (control_converged t)
      in
      if busy then digest_round t;
      busy
  | Reselect ->
      reselect t (period t Reselect);
      t.live_flows > 0
  | Health -> (
      match t.health with Some h -> health_tick t h || t.live_flows > 0 | None -> false)

(* A started loop reschedules one closure, made when it starts. *)
let ensure t loop =
  if t.loops land bit loop = 0 then begin
    t.loops <- t.loops lor bit loop;
    let rec tick () =
      if round t loop then Engine.after t.eng (period t loop) tick
      else t.loops <- t.loops land lnot (bit loop)
    in
    Engine.after t.eng (period t loop) tick
  end

(* The loops a flow needs, (re)started with every new flow and at every
   detected fault. *)
let ensure_loops t =
  ensure t Recompute;
  if t.cfg.reliable_bcast then ensure t Digest;
  if Option.is_some t.cfg.reselect_interval_ns then ensure t Reselect

(* The health estimator starts when the first flaky link is flagged — a
   clean run never runs a single tick, so its event stream is untouched. *)
let start_health t =
  if Option.is_none t.health then begin
    let n = Topology.link_count t.topo in
    t.health <-
      Some
        {
          ewma = Array.make n 0.0;
          prev_tx = Array.make n 0;
          prev_lost = Array.make n 0;
          since = Array.make n 0;
        }
  end;
  ensure t Health

(* -- fault injection and recovery (§3.2) ----------------------------------- *)

(* Dead-endpoint flows cannot recover; they are dropped from the rack state
   entirely (active set, allocator, per-node views) and reported. *)
let abort_flow t st =
  if st.live then begin
    t.aborted <- st.idx :: t.aborted;
    st.inject_gen <- st.inject_gen + 1;
    flow_done_sending t st;
    retire t st;
    st.on_complete <- None;
    for node = 0 to t.nverts - 1 do
      Replicas.remove t.reps ~replica:node st.idx
    done;
    (* The origin's advertised live set must drop the flow too, or every
       digest hash would disagree with the views forever. *)
    if t.cfg.reliable_bcast then Rbcast.mark_dead t.origins.(st.src) st.idx
  end

(* The simulator plays the receiver's ARQ with global knowledge: a lost Data
   packet re-arms a per-sequence retransmission timer under the
   [rtx_timeout_ns] backoff and is re-sent — same sequence number,
   freshly sampled path — once it fires. Until the failure is detected the
   fresh path may cross the same dead cable; the backoff rides out exactly
   that window. *)
let rec arm_retransmit t st ~seq ~bytes ~last =
  let n = Option.value ~default:0 (Util.Itbl.find_opt st.rtx seq) in
  if n >= rtx_max_retries then abort_flow t st
  else begin
    Util.Itbl.replace st.rtx seq (n + 1);
    Engine.after t.eng
      (rtx_timeout_ns t.cfg ~attempt:n)
      (fun () -> retransmit t st ~seq ~bytes ~last)
  end

and retransmit t st ~seq ~bytes ~last =
  if st.live && Net.node_up t.net st.src then begin
    if Topology.reachable t.topo st.src st.dst then begin
      t.retransmissions <- t.retransmissions + 1;
      t.injected_payload <- t.injected_payload + (bytes - header);
      let n = Routing.sample_into t.rctx t.rng st.proto ~src:st.src ~dst:st.dst in
      let route = Net.intern_prefix t.net (Routing.path_buffer t.rctx) n in
      Net.send_data t.net ~flow:st.idx ~seq ~last ~bytes ~route;
      Net.release_route t.net route
    end
    else
      (* Partitioned for now: wait out another timeout (the detection
         handler aborts the flow if the endpoint is truly gone). *)
      arm_retransmit t st ~seq ~bytes ~last
  end

let handle_loss t pkt =
  if Net.kind t.net pkt = Net.code_data then begin
    let id = Net.data_flow t.net pkt in
    match find_flow t id with
    | Some st when st.live ->
        arm_retransmit t st ~seq:(Net.data_seq t.net pkt)
          ~bytes:(Net.bytes t.net pkt) ~last:(Net.data_last t.net pkt)
    | _ -> ()
  end

(* A congested receiver paces senders down: when a delivered data packet's
   final-hop link is above the high watermark, the receiver returns one
   PAUSE (rate-limited per receiver) to the packet's source, covering
   [pause_class] and every class below it. Higher classes are never
   paused — their latency is what the backpressure is protecting. *)
let maybe_send_pause t pkt ~id =
  if t.cfg.overload_control && Net.overloaded_links t.net > 0 then begin
    let dst = Net.route_last t.net pkt in
    let now = Engine.now t.eng in
    if now - t.last_pause.(dst) >= pause_interval_ns then begin
      let len = Net.route_length t.net pkt in
      let l = Topology.find_link_id t.topo (Net.route_at t.net pkt (len - 2)) dst in
      if l >= 0 && Net.link_overloaded t.net ~link_id:l then
        match find_flow t id with
        | Some st
          when st.priority >= pause_class && st.src <> dst && connected t dst st.src ->
            t.last_pause.(dst) <- now;
            t.pauses_sent <- t.pauses_sent + 1;
            let route = ctrl_route t ~key:(dst + (131 * st.src)) ~src:dst ~dst:st.src in
            Net.send_pause t.net ~node:st.src ~cls:pause_class ~level:1
              ~window_kbps:0 ~bytes:Wire.pause_size ~route;
            Net.release_route t.net route
        | _ -> ()
    end
  end

(* Runs one detection delay after the physical event: flips the
   control-plane overlay, repairs broadcast trees, drops flows whose
   endpoint died, and re-paths + re-announces the survivors (§3.2: every
   node re-broadcasts its ongoing flows after a discovery event). The next
   rate epoch then stamps reconvergence. *)
let detect t fr apply_overlay =
  apply_overlay ();
  fr.repaired <- Broadcast.repair_all t.bcast;
  t.bcast_target <- Topology.alive_vertex_count t.topo - 1;
  (* A healed or rejoining node hears every stream in the next digest round. *)
  Array.iter Rbcast.reset_backoff t.origins;
  iter_live t (fun st ->
      if not (Topology.reachable t.topo st.src st.dst) then begin
        abort_flow t st;
        fr.aborted <- fr.aborted + 1
      end
      else begin
        reroute t st st.proto;
        if not st.done_sending then send_flow_broadcast t st Wire.Flow_start
      end);
  if t.live_flows = 0 then fr.reconverge_ns <- Engine.now t.eng else ensure_loops t

(* The physical event happens at [ns]; one detection delay later [detect]
   applies [overlay] and reacts, then [detected] runs. *)
let schedule_event ?(detected = ignore) t ~ns kind phys overlay =
  Engine.at t.eng ns (fun () ->
      phys ();
      let fr =
        {
          kind;
          fail_ns = ns;
          detect_ns = ns + detection_delay t.cfg t.topo;
          reconverge_ns = -1;
          aborted = 0;
          repaired = 0;
        }
      in
      t.failures <- fr :: t.failures;
      Engine.after t.eng (detection_delay t.cfg t.topo) (fun () ->
          detect t fr overlay;
          detected ();
          (* The rack may have gone quiet before this event was detected
             (e.g. a partition healing after every flow completed); the
             periodic loops must come back so anti-entropy can repair the
             views of whoever was cut off. *)
          ensure_loops t))

(* -- crash-restart (robustness) -------------------------------------------- *)

(* A crash is a state-losing node failure: besides the physical down-state,
   the node's receive windows, traffic-matrix view and per-flow sender soft
   state (pacing timers, retransmission history) are destroyed — unlike
   [Fail_node], which models an outage that preserves state. *)
let crash t u =
  Net.fail_node t.net u;
  Replicas.clear t.reps ~replica:u;
  iter_live t (fun st ->
      if st.src = u then begin
        (* Invalidate the pacing timer and forget retransmission attempts:
           nothing of the sender survives the crash. *)
        st.inject_gen <- st.inject_gen + 1;
        Util.Itbl.reset st.rtx
      end)

let send_snapshot_reqs t u =
  if t.cfg.reliable_bcast then
    Array.iteri
      (fun root _ ->
        if root <> u && connected t u root then begin
          (* An empty-range NACK is the wire-level snapshot request
             ([Wire.snapshot_req]): the origin answers with a full-state
             sync — the rejoin catch-up reuses the anti-entropy repair
             path wholesale. *)
          t.sync_requests <- t.sync_requests + 1;
          let route = ctrl_route t ~key:(root + (131 * u)) ~src:u ~dst:root in
          Net.send_nack t.net ~root ~tree:0 ~from_seq:0 ~to_seq:(-1)
            ~requester:u ~bytes:Wire.snapshot_req_size ~route;
          Net.release_route t.net route
        end)
      t.origins

(* Announce the rejoin: a JOIN broadcast carrying the fresh incarnation
   (receivers wipe their windows for this root and drop its pre-crash
   flows), plus one snapshot request per alive origin. Re-announced every
   [rejoin_retry_ns] until the node has caught up, so a lost JOIN or
   snapshot cannot strand the rejoin. *)
let rec announce_join t u =
  if Net.node_up t.net u && Util.Itbl.mem t.pending_rejoins u then begin
    t.joins_sent <- t.joins_sent + 1;
    let inc = if t.cfg.reliable_bcast then Rbcast.incarnation t.origins.(u) else 0 in
    Net.send_bcast t.net ~inc ~root:u ~tree:0 ~bcast_id:bcast_id_join ~bytes:Wire.join_size ();
    send_snapshot_reqs t u;
    if t.cfg.reliable_bcast then
      Engine.after t.eng rejoin_retry_ns (fun () -> announce_join t u)
    else begin
      (* Without the reliable machinery there is no catch-up to await: the
         rejoin completes at the announcement. *)
      let start = Util.Itbl.find t.pending_rejoins u in
      Util.Itbl.remove t.pending_rejoins u;
      Metrics.note_rejoin t.mtrcs ~node:u ~start ~finish:(Engine.now t.eng)
    end
  end

(* The node comes back {e cold}: fresh origin incarnation, no receive
   windows, no view — then runs the rejoin protocol. The JOIN waits for the
   restore's detection instant, when the broadcast trees have been repaired
   around the revived node and the routing overlay can reach it again. *)
let restart t ~ns u =
  Net.restore_node t.net u;
  Replicas.clear t.reps ~replica:u;
  if t.cfg.reliable_bcast then ignore (Rbcast.restart t.origins.(u));
  Util.Itbl.replace t.pending_rejoins u ns

(* -- the fault vocabulary ---------------------------------------------------- *)

type fault =
  | Fail_link of int * int
  | Restore_link of int * int
  | Fail_node of int
  | Crash of int
  | Restart of int
  | Flaky of { u : int; v : int; loss : U.fraction; spike : U.fraction; spike_ns : int option }
  | Unflaky of int * int
  | Control_chaos of { loss : U.fraction; reorder : U.fraction; dup : U.fraction }

let chaos_seed seed = seed + 101
let flaky_seed seed = seed + 211

(* Everything the event would reject when it fires, checked before it is
   scheduled: the cable must exist, the node must be a vertex, and each
   rate must be a probability in [0, 1), as [Net] requires. *)
let check_fault t fault =
  let fail what = invalid_arg ("R2c2_sim.inject_at: " ^ what) in
  let cable u v = if Topology.find_link t.topo u v = None then fail "vertices not adjacent" in
  let node u = if u < 0 || u >= t.nverts then fail "node out of range" in
  let rate what (r : U.fraction) =
    let r = (r :> float) in
    if r < 0.0 || r >= 1.0 then fail (what ^ " outside [0, 1)")
  in
  match fault with
  | Fail_link (u, v) | Restore_link (u, v) | Unflaky (u, v) -> cable u v
  | Fail_node u | Crash u | Restart u -> node u
  | Flaky { u; v; loss; spike; spike_ns } ->
      cable u v;
      rate "loss" loss;
      rate "spike" spike;
      if Option.value ~default:0 spike_ns < 0 then fail "negative spike_ns"
  | Control_chaos { loss; reorder; dup } ->
      rate "loss" loss;
      rate "reorder" reorder;
      rate "dup" dup

let inject_at t ~ns fault =
  check_fault t fault;
  match fault with
  | Fail_link (u, v) ->
      schedule_event t ~ns "link"
        (fun () -> Net.fail_link t.net u v)
        (fun () -> Topology.fail_link t.topo u v)
  | Restore_link (u, v) ->
      schedule_event t ~ns "restore-link"
        (fun () -> Net.restore_link t.net u v)
        (fun () -> Topology.restore_link t.topo u v)
  | Fail_node u ->
      schedule_event t ~ns "node"
        (fun () -> Net.fail_node t.net u)
        (fun () -> Topology.fail_node t.topo u)
  | Crash u ->
      schedule_event t ~ns "crash" (fun () -> crash t u) (fun () -> Topology.fail_node t.topo u)
  | Restart u ->
      schedule_event t ~ns "restart"
        ~detected:(fun () -> announce_join t u)
        (fun () -> restart t ~ns u)
        (fun () -> Topology.restore_node t.topo u)
  | Flaky { u; v; loss; spike; spike_ns } ->
      Engine.at t.eng ns (fun () ->
          Net.set_flaky_link t.net ~seed:(flaky_seed t.cfg.seed)
            ~spike_ns:(Option.value ~default:flaky_spike_ns spike_ns)
            u v ~loss ~spike;
          start_health t)
  | Unflaky (u, v) -> Engine.at t.eng ns (fun () -> Net.clear_flaky_link t.net u v)
  | Control_chaos { loss; reorder; dup } ->
      (* The chaos RNG continues across retunes. *)
      Engine.at t.eng ns (fun () ->
          Net.set_control_chaos t.net ~seed:(chaos_seed t.cfg.seed) ~loss ~reorder ~dup)

(* -- construction ---------------------------------------------------------- *)

let create cfg topo =
  let eng = Engine.create ~backend:cfg.engine_backend () in
  let net =
    Net.create eng topo ~queue_capacity:cfg.queue_capacity ~link_gbps:cfg.link_gbps ()
  in
  let chaos_on =
    U.compare_q cfg.control_loss U.zero > 0
    || U.compare_q cfg.control_reorder U.zero > 0
    || U.compare_q cfg.control_dup U.zero > 0
  in
  if chaos_on then
    Net.set_control_chaos net ~seed:(chaos_seed cfg.seed) ~loss:cfg.control_loss
      ~reorder:cfg.control_reorder ~dup:cfg.control_dup;
  let bcast = Broadcast.make topo in
  Net.set_broadcast net bcast;
  let nverts = Topology.vertex_count topo in
  let cap = U.byte_rate_of_gbps cfg.link_gbps in
  let alloc =
    Inc.create ~headroom:cfg.headroom ~capacities:(Array.make (Topology.link_count topo) cap) ()
  in
  if cfg.overload_control then
    Inc.set_class_reserve alloc ~priority:reserve_priority ~reserve:class_reserve;
  let t =
    {
      cfg;
      topo;
      eng;
      net;
      bcast;
      rctx = Routing.make topo;
      rng = Util.Rng.create cfg.seed;
      root_rng = Util.Rng.create (cfg.seed + 7);
      mtrcs = Metrics.create ();
      cap_bytes_ns = U.to_float cap;
      flows = Array.make (max 256 nverts) None;
      live_flows = 0;
      nverts;
      reps = Replicas.create ~replicas:nverts ~origins:nverts ~trees:Topology.trees_per_source;
      next_id = 0;
      recomputes = 0;
      rate_updates = [];
      rate_update_count = 0;
      loops = 0;
      reselections = 0;
      flows_rerouted = 0;
      alloc;
      epoch_dirty = false;
      bcast_target = nverts - 1;
      injected_payload = 0;
      delivered_payload = 0;
      dropped_payload = 0;
      blackholed_payload = 0;
      retransmissions = 0;
      aborted = [];
      failures = [];
      origins =
        (if cfg.reliable_bcast then
           Array.init nverts (fun _ ->
               Rbcast.origin ~log_cap:cfg.bcast_log_cap ~trees:Topology.trees_per_source ())
         else [||]);
      chaos_on;
      nacks_sent = 0;
      event_retransmits = 0;
      sync_requests = 0;
      syncs_sent = 0;
      sync_bytes = 0;
      divergence_epochs = 0;
      diverged_since = -1;
      reconverge_samples = [];
      loss_ewma = 0.0;
      prev_ctrl_hops = 0;
      prev_ctrl_lost = 0;
      pending_rejoins = Util.Itbl.create 4;
      joins_sent = 0;
      health = None;
      quarantines = 0;
      probations = 0;
      recoveries = 0;
      admission =
        (if cfg.overload_control then
           Some (Congestion.Overload.Admission.create ~max_priority:(Metrics.max_class - 1) ())
         else None);
      pacers =
        (if cfg.overload_control then
           Array.init nverts (fun _ -> Congestion.Overload.Pacer.create ())
         else [||]);
      pause_cls = (if cfg.overload_control then Array.make nverts max_int else [||]);
      last_pause =
        (if cfg.overload_control then Array.make nverts (-pause_interval_ns)
         else [||]);
      shed_flows = 0;
      shed_payload = 0;
      pauses_sent = 0;
      pauses_received = 0;
      overload_epochs = 0;
    }
  in
  if cfg.queue_high_watermark < max_int then
    Net.set_queue_watermarks net ~high:cfg.queue_high_watermark
      ~low:cfg.queue_low_watermark;
  (* Broadcast copies arriving anywhere bump the receipt counter; once all
     other vertices have a copy, the flow is globally visible. Per-node
     views learn flow starts/finishes from the same deliveries. In reliable
     mode every event first passes the (source, tree) receive window:
     duplicates are absorbed, reordered arrivals buffered, and a gap arms
     the NACK timer. *)
  Net.on_bcast_deliver net (fun pkt ~node ->
      let k = Net.kind net pkt in
      if k = Net.code_bcast then begin
        let bcast_id = Net.bcast_id net pkt in
        if bcast_id = bcast_id_join then
          handle_join t ~node ~joiner:(Net.bcast_root net pkt)
            ~inc:(Net.bcast_inc net pkt)
        else if cfg.reliable_bcast then begin
          let root = Net.bcast_root net pkt and tree = Net.bcast_tree net pkt in
          let w = window t ~node ~root ~tree in
          if Replicas.admit t.reps w ~inc:(Net.bcast_inc net pkt) then
            match
              Replicas.receive t.reps w ~seq:(Net.bcast_seq net pkt) bcast_id
                ~deliver:(apply_bcast_event t)
            with
            | Replicas.Delivered | Replicas.Duplicate -> ()
            | Replicas.Buffered -> schedule_nack t ~node ~root ~tree w
        end
        else if cfg.control = Per_node then
          apply_bcast_event t
            (window t ~node ~root:(Net.bcast_root net pkt) ~tree:(Net.bcast_tree net pkt))
            bcast_id
        else count_receipt t bcast_id
      end
      else if k = Net.code_digest then begin
        if cfg.reliable_bcast then begin
          let root = Net.digest_root net pkt and tree = Net.digest_tree net pkt in
          let w = window t ~node ~root ~tree in
          match
            Replicas.observe_digest t.reps w ~epoch:(Net.digest_epoch net pkt)
              ~last_seq:(Net.digest_last_seq net pkt) ~hash:(Net.digest_hash net pkt)
          with
          | Replicas.Gaps -> schedule_nack t ~node ~root ~tree w
          | Replicas.Diverged when cfg.control = Per_node ->
              (* Genuine divergence, e.g. a repair evicted from the replay
                 log: ask for a full-state sync. *)
              send_nack t ~node ~root ~tree ~from_seq:0 ~to_seq:(-1)
          | Replicas.Diverged | Replicas.Synced -> ()
        end
      end);
  (* Lost Data packets — queue tail drops and failure blackholes alike —
     feed the retransmission machinery; payload losses are bucketed for the
     byte-conservation accounting. *)
  Net.on_drop net (fun pkt ->
      if Net.kind net pkt = Net.code_data then
        t.dropped_payload <- t.dropped_payload + (Net.bytes net pkt - header);
      handle_loss t pkt);
  Net.on_blackhole net (fun pkt ->
      if Net.kind net pkt = Net.code_data then
        t.blackholed_payload <- t.blackholed_payload + (Net.bytes net pkt - header);
      handle_loss t pkt);
  (* Re-flood one sequence of the NACKed stream [nacked_root, nacked_tree],
     at most once per [nack_delay_ns]. Made once, so that answering a NACK
     allocates nothing. *)
  let nacked_root = ref 0 and nacked_tree = ref 0 in
  let replay seq e =
    let now = Engine.now eng in
    if e.replayed_ns <= now - nack_delay_ns then begin
      e.replayed_ns <- now;
      t.event_retransmits <- t.event_retransmits + 1;
      let root = !nacked_root in
      Net.send_bcast t.net ~seq ~inc:(Rbcast.incarnation t.origins.(root)) ~root
        ~tree:!nacked_tree ~bcast_id:e.bcast_id ~bytes:e.lbytes ()
    end
  in
  Net.on_deliver net (fun pkt ->
      let k = Net.kind net pkt in
      if k = Net.code_data then begin
          let id = Net.data_flow net pkt and seq = Net.data_seq net pkt in
          let payload = Net.bytes net pkt - header in
          t.delivered_payload <- t.delivered_payload + payload;
          maybe_send_pause t pkt ~id;
          if Metrics.record_delivery t.mtrcs ~id ~seq ~payload ~now:(Engine.now eng) then
            match find_flow t id with
            | Some st when st.live ->
                retire t st;
                (* The finish broadcast never reaches its own root, but the
                   sender knows its flow ended. *)
                if cfg.control = Per_node then Replicas.remove t.reps ~replica:st.src id;
                send_flow_broadcast t st Wire.Flow_finish;
                Option.iter
                  (fun k ->
                    st.on_complete <- None;
                    k id)
                  st.on_complete
            | _ -> ()
      end
      else if k = Net.code_nack then begin
          (* A NACK reached the origin: replay the logged packets onto the
             same tree (duplicates at healthy nodes are absorbed by their
             windows), or fall back to a full-state sync when the range is
             empty (a sync request) or cannot be replayed in full
             ([Rbcast.replay_range]). A sequence is re-flooded at most once
             per [nack_delay_ns]: the flood in flight serves every NACK for
             it inside that window, and a requester it still misses
             re-NACKs on its own timer. *)
          let root = Net.nack_root net pkt and tree = Net.nack_tree net pkt in
          let from_seq = Net.nack_from net pkt and to_seq = Net.nack_to net pkt in
          let requester = Net.nack_requester net pkt in
          if cfg.reliable_bcast then begin
            if to_seq < from_seq then send_sync t ~root ~requester
            else begin
              nacked_root := root;
              nacked_tree := tree;
              if Rbcast.replay_range t.origins.(root) ~tree ~from_seq ~to_seq replay then
                send_sync t ~root ~requester
            end
          end
      end
      else if k = Net.code_sync then begin
          if cfg.reliable_bcast then begin
            let node = Net.route_last net pkt in
            apply_sync t ~node ~root:(Net.sync_root net pkt)
              ~entries:(Net.sync_entries net pkt)
              ~last_seqs:(Net.sync_last_seqs net pkt)
          end
      end
      else if k = Net.code_pause then begin
          if t.cfg.overload_control then begin
            let node = Net.pause_node net pkt in
            t.pauses_received <- t.pauses_received + 1;
            t.pause_cls.(node) <- Net.pause_class net pkt;
            Congestion.Overload.Pacer.note_pause t.pacers.(node)
              ~level:(Net.pause_level net pkt)
          end
      end);
  t

let start_flow ?(weight = 1) ?(priority = 0) ?(protocol = Routing.Rps) ?demand_gbps ?on_complete
    t ~src ~dst ~size =
  Workload.Flowgen.check_flow ~who:"R2c2_sim" t.topo ~src ~dst ~size;
  (* The start broadcast carries weight and priority in one byte each. *)
  if weight < 1 || weight > 255 then invalid_arg "R2c2_sim: weight outside 1..255";
  if priority < 0 || priority > 255 then invalid_arg "R2c2_sim: priority outside 0..255";
  let shed =
    match t.admission with
    | Some adm -> not (Congestion.Overload.Admission.admits adm ~priority)
    | None -> false
  in
  if shed then begin
    (* Refused at admission: the flow consumes an id but injects nothing —
       its would-be payload is accounted to the shed counters, so the
       byte-conservation ledger still balances exactly. *)
    let idx = next_flow_id t in
    t.shed_flows <- t.shed_flows + 1;
    t.shed_payload <- t.shed_payload + size;
    idx
  end
  else begin
  (* Fetched before the flow takes an id: an unreachable [dst] raises here,
     with nothing changed. *)
  let wf_links = Routing.fractions t.rctx protocol ~src ~dst in
  let idx = next_flow_id t in
  Metrics.add_flow ~priority t.mtrcs ~id:idx ~src ~dst ~size ~arrival_ns:(Engine.now t.eng);
  let st =
    {
      idx;
      src;
      dst;
      proto = protocol;
      weight = float_of_int weight;
      priority;
      wf_links;
      (* Gbps from the caller, wire bytes/ns internally. *)
      demand = Option.map U.byte_rate_of_gbps demand_gbps;
      started_ns = Engine.now t.eng;
      remaining = size;
      seq = 0;
      (* New flows transmit immediately at line rate (§3.3.2): the headroom
         left by the rate computation absorbs them until the next epoch
         picks them up, and flows shorter than one epoch are never
         rate-limited at all. *)
      rate = t.cap_bytes_ns;
      last_inject = Engine.now t.eng;
      inject_gen = 0;
      visible = false;
      done_sending = false;
      rtx = Util.Itbl.create 8;
      (* measured: empty on loss-free runs; only tail-drop/failure
         retransmission timers land here, a handful per flow *)
      btree = -1;
      live = true;
      starts_seen = 0;
      on_complete;
    }
  in
  t.flows.(idx) <- Some st;
  t.live_flows <- t.live_flows + 1;
  t.epoch_dirty <- true;
  send_flow_broadcast t st Wire.Flow_start;
  (* The start broadcast picked the flow's tree; without the reliable
     plane no digest reads per-tree hashes, and tree 0 stands in. *)
  if t.cfg.control = Per_node then
    Replicas.add t.reps (window t ~node:src ~root:src ~tree:(max 0 st.btree)) idx;
  ensure_loops t;
  inject t st;
  idx
  end

let run_engine ?until_ns t = Engine.run ?until:until_ns t.eng

(* -- reliability accessors (tests, benches) -------------------------------- *)

let effective_headroom t = Inc.headroom t.alloc

let shed_floor t =
  match t.admission with
  | Some adm -> Congestion.Overload.Admission.shed_floor adm
  | None -> Metrics.max_class

let pacer_scale t ~node =
  if Array.length t.pacers = 0 then 1.0
  else Congestion.Overload.Pacer.scale t.pacers.(node)

let flow_tree t id = match find_flow t id with Some st -> st.btree | None -> -1

let node_view_ids t ~node =
  if t.cfg.control <> Per_node then
    invalid_arg "R2c2_sim.node_view_ids: Per_node control only";
  Array.to_list (Replicas.believed t.reps ~replica:node)

(* The full rate vector a node would compute from its current view — every
   flow it believes exists, not just its own. Two nodes with identical
   views produce identical vectors (the waterfill is deterministic), which
   is exactly what the reconvergence tests assert. *)
let node_allocations t ~node =
  if t.cfg.control <> Per_node then
    invalid_arg "R2c2_sim.node_allocations: Per_node control only";
  believed_allocation t ~node ~own:[]
  |> List.map (fun st -> (st.idx, Inc.rate t.alloc ~id:st.idx))
  |> Array.of_list

let results t =
  {
    metrics = t.mtrcs;
    max_queue = Net.max_queue_bytes t.net;
    drops = Net.drops t.net;
    data_wire_bytes = Net.data_bytes_on_wire t.net;
    control_wire_bytes = Net.control_bytes_on_wire t.net;
    recomputes = t.recomputes;
    rate_updates = List.rev t.rate_updates;
    reselections = t.reselections;
    flows_rerouted = t.flows_rerouted;
    blackholes = Net.blackholes t.net;
    blackholed_bytes = Net.blackholed_bytes t.net;
    injected_payload = t.injected_payload;
    delivered_payload = t.delivered_payload;
    dropped_payload = t.dropped_payload;
    blackholed_payload = t.blackholed_payload;
    retransmissions = t.retransmissions;
    aborted_flows = List.rev t.aborted;
    failures = List.rev t.failures;
    tree_repairs = Broadcast.repairs t.bcast;
    ctrl_lost = Net.ctrl_lost t.net;
    ctrl_lost_bytes = Net.ctrl_lost_bytes t.net;
    ctrl_reordered = Net.ctrl_reordered t.net;
    ctrl_dupped = Net.ctrl_dupped t.net;
    blackholed_data_bytes = Net.blackholed_data_bytes t.net;
    blackholed_ctrl_bytes = Net.blackholed_ctrl_bytes t.net;
    nacks_sent = t.nacks_sent;
    event_retransmits = t.event_retransmits;
    sync_requests = t.sync_requests;
    syncs_sent = t.syncs_sent;
    sync_bytes = t.sync_bytes;
    dup_events_absorbed = Replicas.duplicates t.reps;
    divergence_epochs = t.divergence_epochs;
    reconverge_samples = List.rev t.reconverge_samples;
    terminal_diverged = diverged_nodes t;
    loss_ewma = U.fraction t.loss_ewma;
    effective_headroom = Inc.headroom t.alloc;
    flaky_lost = Net.flaky_lost t.net;
    flaky_lost_bytes = Net.flaky_lost_bytes t.net;
    quarantines = t.quarantines;
    probations = t.probations;
    recoveries = t.recoveries;
    joins_sent = t.joins_sent;
    rejoins = Metrics.rejoin_samples t.mtrcs;
    rejoins_pending = Util.Itbl.length t.pending_rejoins;
    shed_flows = t.shed_flows;
    shed_payload = t.shed_payload;
    pauses_sent = t.pauses_sent;
    pauses_received = t.pauses_received;
    overload_epochs = t.overload_epochs;
    overloaded_links = Net.overloaded_links t.net;
  }

let link_health t u v = Routing.link_health t.rctx u v
let net t = t.net

let run ?(demand_of = fun _ _ -> None) ?until_ns cfg topo specs =
  let t = create cfg topo in
  List.iteri
    (fun i spec ->
      let open Workload.Flowgen in
      Engine.at t.eng spec.arrival_ns (fun () ->
          let id =
            start_flow ~weight:spec.weight ~priority:spec.priority
              ?demand_gbps:(demand_of i spec) t ~src:spec.src ~dst:spec.dst ~size:spec.size
          in
          (* Batch flow ids must equal list positions. *)
          assert (id = i)))
    specs;
  run_engine ?until_ns t;
  results t

