module U = Util.Units

type config = { trees_per_source : int }

let default_config = { trees_per_source = Topology.trees_per_source }

type flow_id = int

type flow = {
  id : flow_id;
  src : int;
  dst : int;
  weight : int;
  priority : int;
  tree : int;
      (* every event of a flow rides one broadcast tree, so the per-tree
         sequence window at each receiver orders finish after start *)
  mutable protocol : Routing.protocol;
  mutable demand_gbps : U.gbps option;
  mutable demand_estimator : Congestion.Demand.t option;
}

type t = {
  cfg : config;
  topo : Topology.t;
  rctx : Routing.ctx;
  bcast : Broadcast.t;
  rng : Util.Rng.t;
  flows : flow Util.Itbl.t;
  mutable next_id : flow_id;
  mutable observers : (Wire.broadcast -> unit) list;
  mutable seq_observers : (bytes -> unit) list;
  mutable control_bytes : int;
  mutable reliability_bytes : int;
      (* the loss-tolerance overhead on top of the paper's pinned 16-byte
         broadcast model: sequencing extensions, digests, replays, syncs *)
  origin : (Wire.broadcast * flow_id) Rbcast.origin;
  mutable event_retransmits : int;
  mutable syncs_sent : int;
  mutable loss_ewma : float;  (* raw EWMA state; exposed as a fraction *)
  selector : Genetic.Selector.t Lazy.t;
      (* §3.4's GA selector, made on the first [reselect_routing] *)
  alloc : Congestion.Waterfill.Inc.t;
      (* incremental epoch state: patched on every flow event, so a
         recompute with no intervening event is O(1); every rate and the
         loss-scaled headroom are read from it *)
  event_buf : bytes;  (* each event's 16-byte encoding, for its round-trip check *)
}

let create ?(config = default_config) ?(seed = 1) topo =
  let rctx = Routing.make topo in
  {
    cfg = config;
    topo;
    rctx;
    bcast = Broadcast.make ~trees_per_source:config.trees_per_source topo;
    rng = Util.Rng.create seed;
    flows = Util.Itbl.create 64;
    next_id = 0;
    observers = [];
    seq_observers = [];
    control_bytes = 0;
    reliability_bytes = 0;
    origin = Rbcast.origin ~trees:config.trees_per_source ();
    event_retransmits = 0;
    syncs_sent = 0;
    loss_ewma = 0.0;
    selector =
      lazy (Genetic.Selector.make ~headroom:Topology.headroom rctx ~link_gbps:Topology.link_gbps);
    alloc =
      Congestion.Waterfill.Inc.create ~headroom:Topology.headroom
        ~capacities:
          (Array.make (Topology.link_count topo) (U.byte_rate_of_gbps Topology.link_gbps))
        ();
    event_buf = Bytes.make Wire.broadcast_size '\000';
  }

let topology t = t.topo
let routing t = t.rctx
let broadcast t = t.bcast
let config t = t.cfg
let on_broadcast t f = t.observers <- f :: t.observers
let on_broadcast_seq t f = t.seq_observers <- f :: t.seq_observers

(* Broadcast replicas one event costs: one packet per non-root vertex. *)
let fanout t = Broadcast.bytes_per_broadcast t.topo / Wire.broadcast_size

let pkt_of_flow f event =
  let demand_kbps =
    match f.demand_gbps with
    | None -> 0
    | Some g -> min 0xFFFFFFFF (int_of_float ((g : U.gbps :> float) *. 1_000_000.0))
  in
  {
    Wire.event;
    bsrc = f.src;
    bdst = f.dst;
    weight = f.weight;
    priority = f.priority;
    demand_kbps;
    tree = f.tree;
    rp = f.protocol;
  }

let emit_broadcast t f event =
  let pkt = pkt_of_flow f event in
  (* Both encodings must round-trip, checksum and every field read back
     where they lie; this exercises the wire formats on every control
     event. *)
  Bytes.fill t.event_buf 0 Wire.broadcast_size '\000';
  Wire.encode_broadcast_at t.event_buf ~off:0 pkt;
  (match Wire.check_broadcast_at t.event_buf ~off:0 with
  | Ok () -> assert (Wire.same_broadcast_at t.event_buf ~off:0 pkt)
  | Error e -> failwith ("Stack: broadcast encoding failed: " ^ e));
  t.control_bytes <- t.control_bytes + Broadcast.bytes_per_broadcast t.topo;
  let seq = Rbcast.announce t.origin ~tree:f.tree ~flow:f.id event (pkt, f.id) in
  let wire = Wire.encode_seq_broadcast pkt ~flow:f.id ~seq in
  (match Wire.check_seq_broadcast wire with
  | Ok () ->
      assert (
        Wire.same_broadcast_at wire ~off:0 pkt
        && Wire.flow_at wire ~off:0 = f.id
        && Wire.seq_at wire ~off:0 = seq)
  | Error e -> failwith ("Stack: seq broadcast encoding failed: " ^ e));
  t.reliability_bytes <-
    t.reliability_bytes
    + ((Wire.seq_broadcast_size - Wire.broadcast_size) * fanout t);
  List.iter (fun obs -> obs pkt) t.observers;
  List.iter (fun obs -> obs wire) t.seq_observers

let find t id =
  match Util.Itbl.find_opt t.flows id with
  | Some f -> f
  | None -> invalid_arg "Stack: unknown flow id"

let open_flow ?(weight = 1) ?(priority = 0) ?(protocol = Routing.Rps) t ~src ~dst =
  let h = Topology.host_count t.topo in
  if src = dst then invalid_arg "Stack.open_flow: src = dst";
  if src < 0 || src >= h || dst < 0 || dst >= h then
    invalid_arg "Stack.open_flow: host out of range";
  (* The broadcast carries both in 8-bit fields; checked before the flow
     touches any state, so a refused open leaves nothing behind. *)
  if weight < 1 || weight > 255 then invalid_arg "Stack.open_flow: weight outside 1..255";
  if priority < 0 || priority > 255 then
    invalid_arg "Stack.open_flow: priority outside 0..255";
  (* Fetched before the flow takes an id: an unreachable [dst] raises here,
     with nothing changed. *)
  let row = Routing.fractions t.rctx protocol ~src ~dst in
  let id = t.next_id in
  t.next_id <- id + 1;
  let f =
    {
      id;
      src;
      dst;
      weight;
      priority;
      tree = Broadcast.choose_tree t.bcast t.rng ~src;
      protocol;
      demand_gbps = None;
      demand_estimator = None;
    }
  in
  Util.Itbl.replace t.flows id f;
  Congestion.Waterfill.Inc.add_flow ~weight:(float_of_int weight) ~priority t.alloc ~id row;
  emit_broadcast t f Wire.Flow_start;
  id

let close_flow t id =
  let f = find t id in
  Util.Itbl.remove t.flows id;
  Congestion.Waterfill.Inc.remove_flow t.alloc ~id;
  emit_broadcast t f Wire.Flow_finish

let set_demand t id ~gbps =
  let f = find t id in
  f.demand_gbps <- gbps;
  Congestion.Waterfill.Inc.set_demand t.alloc ~id (Option.map U.byte_rate_of_gbps gbps);
  emit_broadcast t f Wire.Demand_update

let set_protocol t id proto =
  let f = find t id in
  if f.protocol <> proto then begin
    let row = Routing.fractions t.rctx proto ~src:f.src ~dst:f.dst in
    f.protocol <- proto;
    Congestion.Waterfill.Inc.set_links t.alloc ~id row;
    emit_broadcast t f Wire.Route_change
  end

let observe_sender_queue t id ~queued_bytes ~period_ns =
  let f = find t id in
  let est =
    match f.demand_estimator with
    | Some e -> e
    | None ->
        let e = Congestion.Demand.create ~period_ns () in
        f.demand_estimator <- Some e;
        e
  in
  let alloc = Congestion.Waterfill.Inc.rate t.alloc ~id in
  Congestion.Demand.observe est ~rate:alloc ~queued_bytes;
  if U.compare_q alloc U.zero > 0 && Congestion.Demand.is_host_limited est ~allocation:alloc
  then set_demand t id ~gbps:(Some (U.gbps_of_byte_rate (Congestion.Demand.estimate est)))

let flow_array t = Util.Itbl.sorted_values t.flows

(* Flow open/close/demand/reroute events have already patched [t.alloc];
   an epoch with no event since the last one is a no-op. *)
let recompute t = Congestion.Waterfill.Inc.allocate t.alloc

let rate_gbps t id = U.gbps_of_byte_rate (Congestion.Waterfill.Inc.rate t.alloc ~id)

let allocations t =
  List.rev (Util.Itbl.fold_sorted (fun id _ acc -> (id, rate_gbps t id) :: acc) t.flows [])

let active_flows t =
  List.rev
    (Util.Itbl.fold_sorted (fun id f acc -> (id, f.src, f.dst, f.protocol) :: acc) t.flows [])

let aggregate_throughput_gbps t =
  (* Summing in flow-id order keeps the float total identical on every node. *)
  U.gbps
    (Util.Itbl.fold_sorted (fun id _ acc -> acc +. (rate_gbps t id :> float)) t.flows 0.0)

let reselect_routing t rng =
  let fl = flow_array t in
  if Array.length fl = 0 then 0
  else begin
    let flows = Array.map (fun f -> (f.src, f.dst)) fl in
    let current = Array.map (fun f -> f.protocol) fl in
    match Genetic.Selector.reselect (Lazy.force t.selector) rng ~flows ~current with
    | Some best ->
        let changed = ref 0 in
        Array.iteri
          (fun i f ->
            if f.protocol <> best.(i) then begin
              incr changed;
              set_protocol t f.id best.(i)
            end)
          fl;
        !changed
    | None -> 0
  end

let sample_packet_route t id rng =
  let f = find t id in
  let path = Routing.sample_path t.rctx rng f.protocol ~src:f.src ~dst:f.dst in
  (path, Wire.route_selectors t.rctx path)

let control_bytes_sent t = t.control_bytes
let reliability_bytes_sent t = t.reliability_bytes
let loss_ewma t = U.fraction t.loss_ewma
let effective_headroom t = Congestion.Waterfill.Inc.headroom t.alloc
let syncs_sent t = t.syncs_sent
let event_retransmits t = t.event_retransmits
let last_seq t ~tree = Rbcast.last_seq t.origin ~tree

(* Every path that changes [t.flows] marks the origin's live set too. *)
let matrix_hash t = Int64.of_int (Rbcast.state_hash t.origin)

let emit_digests ?(src = 0) t =
  let ds = ref [] in
  Rbcast.digest_round t.origin (fun ~epoch ~tree ~last_seq ~hash ->
      t.reliability_bytes <- t.reliability_bytes + (Wire.digest_size * fanout t);
      ds :=
        { Wire.dsrc = src; dtree = tree; epoch; last_seq; state_hash = Int64.of_int hash } :: !ds);
  let ds = List.rev !ds in
  (* The whole beacon round travels as one contiguous batch; check it
     round-trips once instead of re-encoding each digest separately. *)
  let items = List.map (fun d -> Wire.Item_digest d) ds in
  (match Wire.decode_batch (Wire.encode_batch items) with
  | Ok got -> assert (got = items)
  | Error e -> failwith ("Stack: digest batch encoding failed: " ^ e));
  ds

let replay_range t ~tree ~from_seq ~to_seq =
  let items = ref [] and first = ref (-1) in
  ignore
    (Rbcast.replay_range t.origin ~tree ~from_seq ~to_seq (fun seq (pkt, flow) ->
         if !first < 0 then first := seq;
         items := Wire.Item_seq_broadcast (pkt, flow, seq) :: !items));
  (* The walk starts at the oldest logged sequence of the range: one
     after [from_seq] means [from_seq] was evicted, and the requester
     needs a full sync, not a partial batch. *)
  if !first <> from_seq then None
  else begin
    let n = List.length !items in
    t.event_retransmits <- t.event_retransmits + n;
    (* A repair travels the whole tree again: losers downstream of the
       original loss need it too. *)
    t.reliability_bytes <- t.reliability_bytes + (n * Wire.seq_broadcast_size * fanout t);
    Some (Wire.encode_batch (List.rev !items))
  end

let sync_view t view =
  let flows, last_seqs = Rbcast.snapshot t.origin in
  View.sync view ~flows ~last_seqs;
  t.syncs_sent <- t.syncs_sent + 1;
  t.reliability_bytes <-
    t.reliability_bytes + Wire.sync_size ~flows:(List.length flows) ~trees:t.cfg.trees_per_source

let incarnation t = Rbcast.incarnation t.origin

let restart ?(src = 0) t =
  (* The crash destroyed the authoritative state: every open flow is gone
     (silently — a dead node cannot announce finishes) and the origin
     comes back under a fresh incarnation whose streams start at sequence
     zero. The returned JOIN is what peers need to void their replicas. *)
  Array.iter
    (fun f ->
      Util.Itbl.remove t.flows f.id;
      Congestion.Waterfill.Inc.remove_flow t.alloc ~id:f.id)
    (flow_array t);
  let inc = Rbcast.restart t.origin in
  let j = { Wire.jnode = src; jinc = inc } in
  let wire = Wire.encode_join j in
  (match Wire.decode_join wire with
  | Ok got -> assert (got = j)
  | Error e -> failwith ("Stack: join encoding failed: " ^ e));
  t.reliability_bytes <- t.reliability_bytes + (Wire.join_size * fanout t);
  wire

let snapshot_request ?(requester = 0) t ~root =
  let s =
    { Wire.sroot = root; srequester = requester; sinc = incarnation t }
  in
  let wire = Wire.encode_snapshot_req s in
  (match Wire.decode_snapshot_req wire with
  | Ok got -> assert (got = s)
  | Error e -> failwith ("Stack: snapshot-req encoding failed: " ^ e));
  t.reliability_bytes <- t.reliability_bytes + Wire.snapshot_req_size;
  wire

let note_control_loss t ~sent ~lost =
  if sent < 0 || lost < 0 || lost > sent then invalid_arg "Stack.note_control_loss";
  t.loss_ewma <-
    Congestion.Overload.Loss_headroom.step t.alloc ~headroom:Topology.headroom t.loss_ewma
      ~lost ~sent

let notify_failure t =
  (* Tree repair first: the drop and re-announce broadcasts below must ride
     surviving trees. The FIB re-announcements count as control traffic. *)
  let rb = Broadcast.repair_bytes t.bcast in
  ignore (Broadcast.repair_all t.bcast);
  t.control_bytes <- t.control_bytes + (Broadcast.repair_bytes t.bcast - rb);
  (* Peers cut off until now hear every stream in the next digest round. *)
  Rbcast.reset_backoff t.origin;
  let fl = flow_array t in
  let dropped = ref [] in
  Array.iter
    (fun f ->
      if not (Topology.reachable t.topo f.src f.dst) then begin
        dropped := f.id :: !dropped;
        Util.Itbl.remove t.flows f.id;
        Congestion.Waterfill.Inc.remove_flow t.alloc ~id:f.id;
        emit_broadcast t f Wire.Flow_finish
      end
      else
        (* Fractions are recomputed on the surviving graph (the routing
           cache flushed itself on the topology version bump); patching the
           allocator rows marks it dirty for the next recompute. *)
        Congestion.Waterfill.Inc.set_links t.alloc ~id:f.id
          (Routing.fractions t.rctx f.protocol ~src:f.src ~dst:f.dst))
    fl;
  (* §3.2: every node re-broadcasts its ongoing flows. A bare re-announce
     would lose the demand side of the rack state: peers rebuild the
     traffic matrix from these broadcasts, so every flow whose demand is
     known — declared or estimated — re-emits it too. *)
  let fl = flow_array t in
  Array.iter (fun f -> emit_broadcast t f Wire.Flow_start) fl;
  Array.iter
    (fun f ->
      if f.demand_gbps <> None || f.demand_estimator <> None then
        emit_broadcast t f Wire.Demand_update)
    fl;
  List.rev !dropped
