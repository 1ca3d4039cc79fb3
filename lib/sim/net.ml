(* Arena-backed packet fabric (DESIGN.md §11). A packet is 8 native ints
   in a flat pool — exactly one cache line: a meta word packing kind code,
   hop cursor and wire bytes, the interned route handle, and six payload
   words — so injecting, forwarding and delivering allocates nothing on
   the OCaml heap and touches one line per stage. The FIFO queue link
   lives in a side array ([qnext]) rather than the record, both to fit the
   line and because eight neighbouring links share a line of their own.
   Routes live in a shared refcounted slice pool: one copy per flow,
   shared by every packet (retransmits included). A broadcast carries no
   route: each relay walks the set bits of its bytes in the tree's FIB,
   one bit per out-link, and copies the packet once per child but the
   last.

   Hot-path field access goes through local mirrors of the two backing
   Bigarrays ([st], [sl]) so reads compile to single monomorphic loads;
   the mirrors are re-fetched after an allocation whose handle lies past
   them — i.e. exactly when pool growth replaced the store. The
   accessors are [@inline] and a relay reads its tree's FIB from this
   module's own copy, kept per topology version, so the per-hop work
   stays in this compilation unit: dune's dev profile builds with
   -opaque, which inlines nothing across modules (DESIGN.md §11). *)

module U = Util.Units
module Arena = Util.Arena

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type packet = int
type route = int

let fields = 8

(* Meta word: bits 0-3 kind code, bits 4-13 hop cursor (routes are capped
   far below 1024 hops by the wire format), bits 14+ wire bytes. *)
let f_meta = 0
let f_route = 1
let f_p0 = 2
let f_p1 = 3
let f_p2 = 4
let f_p3 = 5
let f_p4 = 6
let f_p5 = 7

let meta_kind m = m land 15
let meta_hop m = (m lsr 4) land 1023
let meta_bytes m = m lsr 14
let meta_make ~code ~bytes = code lor (bytes lsl 14)
let meta_hop_unit = 1 lsl 4

let code_data = 0
let code_ack = 1
let code_bcast = 2
let code_digest = 3
let code_nack = 4
let code_sync = 5
let code_pause = 6

type chaos = {
  crng : Util.Rng.t;
  mutable loss : float;
  mutable reorder : float;
  mutable dup : float;
}

(* Gray failures: a flagged link intermittently loses packets and spikes
   its latency — any packet kind, both directions — from a dedicated RNG
   so runs stay seed-deterministic. Per-link attempt/loss counters feed
   the health estimator upstairs. Links not flagged draw nothing, so a
   run without flaky links has a bit-identical event stream. *)
type flaky = {
  frng : Util.Rng.t;
  floss : float array;  (* per directed link: loss probability *)
  fspike : float array;  (* per directed link: latency-spike probability *)
  mutable spike_ns : int;  (* extra delay a spiked hop suffers *)
  factive : Bytes.t;  (* '\001' when the link has any flaky behavior *)
  ftx : int array;  (* propagation attempts on flagged links *)
  flost : int array;  (* flaky losses per link *)
}

(* Output queue: intrusive FIFO chained through the fabric's [qnext]. *)
type link_state = {
  mutable head : int;
  mutable tail : int;
  mutable busy : bool;
  mutable qbytes : int;
  mutable max_qbytes : int;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  pool : Arena.t;
  slices : Arena.Ints.pool;
  mutable st : ba;  (* mirror of [Arena.data pool]; refresh after alloc *)
  mutable sl : ba;  (* mirror of [Arena.Ints.data slices] *)
  (* Per-packet FIFO link (see the header comment); grown in lockstep with
     the pool. Only meaningful while the packet sits in an output queue. *)
  mutable qnext : int array;
  (* Per-packet arrival vertex, grown with [qnext]. Only meaningful while
     the packet's arrival event is pending. *)
  mutable hop_dst : int array;
  links : link_state array;
  (* The engine key space this fabric owns: key [l < nlinks] ends the
     serialization on link [l], key [nlinks + p] is packet [p]'s arrival.
     A link serializes one packet at a time and a packet has one hop in
     flight, so neither key can be pending twice. *)
  nlinks : int;
  (* Link endpoints copied out of [Topology] into flat arrays: the per-hop
     liveness check reads both ends of a link, and an array load beats a
     cross-module accessor call. *)
  src_of : int array;
  dst_of : int array;
  queue_capacity : int;
  (* Queue-occupancy watermarks for overload detection: a link whose
     occupancy exceeds [q_high] is flagged overloaded and stays flagged
     until it drains below [q_low] (hysteresis). Default high = max_int
     keeps the whole machinery inert — no flag is ever set and the event
     stream is bit-identical to a build without it. *)
  mutable q_high : int;
  mutable q_low : int;
  over : Bytes.t;  (* per directed link: '\001' while overloaded *)
  mutable over_count : int;
  bits_per_ns : float;
  (* One-entry serialization-time memo: traffic is dominated by a single
     packet size, so the float divide + ceil runs once per size change,
     not once per transmission. *)
  mutable tx_memo_bytes : int;
  mutable tx_memo_ns : int;
  mutable broadcast : Broadcast.t option;
  (* Relay FIBs: slot [root * fib_trees + tree] holds the tree that
     [Broadcast.fib] returned while [Topology.version] read [fib_version]
     (empty: not fetched yet), so a hop reads a FIB with one array load
     instead of re-validating it in [Broadcast]. A version move drops them
     all, and the next use of each tree re-validates (and repairs) it in
     [Broadcast] exactly as an unmemoized fetch would. The tree layout's
     arrays come with the first fetch; they never change. *)
  mutable fibs : Bytes.t array;
  mutable fib_trees : int;
  mutable fib_version : int;
  mutable first_byte : int array;
  mutable slot_link : int array;
  mutable deliver : packet -> unit;
  mutable bcast_deliver : packet -> node:int -> unit;
  mutable drop : packet -> unit;
  mutable drops : int;
  (* Wire byte counters kept as ints (exact below 2^53 when exported as
     float): incrementing a mutable float field in a mixed record boxes a
     float per packet, which the zero-allocation contract forbids. *)
  mutable data_wire : int;
  mutable control_wire : int;
  (* Physical down-state, applied at the failure instant — distinct from
     the control-plane view in [Topology]'s overlay, which the simulation
     flips only after the detection delay. Packets meeting a dead element
     are blackholed and counted. *)
  link_up : bool array;
  nodes_up : bool array;
  (* Conjunction [link_up && both endpoints up] folded into one byte per
     directed link, maintained at the (rare) fail/restore points so the
     twice-per-hop liveness check is a single load. *)
  link_live : Bytes.t;
  mutable on_blackhole : packet -> unit;
  mutable blackholes : int;
  mutable blackholed_bytes : int;
  mutable blackholed_data_bytes : int;
  mutable blackholed_ctrl_bytes : int;
  (* Probabilistic control-plane chaos, independent of physical failures:
     loss / reorder / duplication drawn per hop from a dedicated RNG so
     runs are reproducible for a given seed whatever the data plane does. *)
  mutable chaos : chaos option;
  mutable ctrl_lost : int;
  mutable ctrl_lost_bytes : int;
  mutable ctrl_reordered : int;
  mutable ctrl_dupped : int;
  mutable ctrl_hops : int;  (* control hop transmissions, lost ones included *)
  (* Gray-failure injection, [None] until a link is flagged. *)
  mutable flaky : flaky option;
  mutable flaky_lost : int;
  mutable flaky_lost_bytes : int;
  (* Observation tap fired on every live arrival (relays included); the
     chaos-scenario invariant monitors hang off this. *)
  mutable arrive_tap : (node:int -> packet -> unit) option;
}

(* -- field access --------------------------------------------------------- *)

(* Inlined: a relayed copy reads and writes every field, and a call per
   field would cost more than the load itself. *)
let[@inline] fget t h f = Bigarray.Array1.unsafe_get t.st ((h * fields) + f)
let[@inline] fset t h f v = Bigarray.Array1.unsafe_set t.st ((h * fields) + f) v

(* Slice header: length at [s - 2] (see Arena.Ints). *)
let[@inline] slen t s = Bigarray.Array1.unsafe_get t.sl (s - 2)
let[@inline] sget t s i = Bigarray.Array1.unsafe_get t.sl (s + i)

(* Callers write every field (send_sr, fanout, clone), so the record comes
   back uninitialized; the mirror is only re-fetched when the handle lies
   past it, i.e. exactly when the pool grew and replaced its store. *)
let alloc_pkt t =
  let h = Arena.alloc_uninit t.pool in
  if (h + 1) * fields > Bigarray.Array1.dim t.st then begin
    t.st <- Arena.data t.pool;
    let grown a =
      let a' = Array.make (Arena.capacity t.pool) (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.qnext <- grown t.qnext;
    t.hop_dst <- grown t.hop_dst
  end;
  h

let intern_prefix t a n =
  let s = Arena.Ints.of_prefix t.slices a n in
  t.sl <- Arena.Ints.data t.slices;
  s

let intern t a = intern_prefix t a (Array.length a)

(* Terminal for every packet: drop the route reference (and, for Sync, the
   two payload slices), then recycle the record. *)
let free_pkt t h =
  Arena.Ints.release t.slices (fget t h f_route);
  if meta_kind (fget t h f_meta) = code_sync then begin
    Arena.Ints.release t.slices (fget t h f_p1);
    Arena.Ints.release t.slices (fget t h f_p2)
  end;
  Arena.free t.pool h

let clone_pkt t h =
  let c = alloc_pkt t in
  for f = 0 to fields - 1 do
    fset t c f (fget t h f)
  done;
  t.qnext.(c) <- -1;
  Arena.Ints.retain t.slices (fget t c f_route);
  if meta_kind (fget t c f_meta) = code_sync then begin
    Arena.Ints.retain t.slices (fget t c f_p1);
    Arena.Ints.retain t.slices (fget t c f_p2)
  end;
  c

(* -- public accessors ----------------------------------------------------- *)

let kind t h = meta_kind (fget t h f_meta)

(* Bcast and Digest fan out along a (root, tree) broadcast tree; Nack and
   Sync are source-routed unicast like Data/Ack. All four are control
   plane. *)
let is_control t h = meta_kind (fget t h f_meta) >= code_bcast
let bytes t h = meta_bytes (fget t h f_meta)
let hop t h = meta_hop (fget t h f_meta)
let route_length t h = slen t (fget t h f_route)
let route_at t h i = sget t (fget t h f_route) i

let route_last t h =
  let r = fget t h f_route in
  sget t r (slen t r - 1)

let data_flow t h = fget t h f_p0
let data_seq t h = fget t h f_p1
let data_last t h = fget t h f_p2 <> 0
let ack_flow t h = fget t h f_p0
let ack_ackno t h = fget t h f_p1
let bcast_id t h = fget t h f_p0
let bcast_root t h = fget t h f_p1
let bcast_tree t h = fget t h f_p2
let bcast_seq t h = fget t h f_p3
let bcast_inc t h = fget t h f_p4
let digest_root t h = fget t h f_p0
let digest_tree t h = fget t h f_p1
let digest_epoch t h = fget t h f_p2
let digest_last_seq t h = fget t h f_p3
let digest_hash t h = fget t h f_p4

let nack_root t h = fget t h f_p0
let nack_tree t h = fget t h f_p1
let nack_from t h = fget t h f_p2
let nack_to t h = fget t h f_p3
let nack_requester t h = fget t h f_p4
let pause_node t h = fget t h f_p0
let pause_class t h = fget t h f_p1
let pause_level t h = fget t h f_p2
let pause_window t h = fget t h f_p3
let sync_root t h = fget t h f_p0

let sync_entries t h =
  let s = fget t h f_p1 in
  let acc = ref [] in
  for i = (slen t s / 2) - 1 downto 0 do
    acc := (sget t s (2 * i), sget t s ((2 * i) + 1)) :: !acc
  done;
  !acc

let sync_last_seqs t h =
  let s = fget t h f_p2 in
  Array.init (slen t s) (fun i -> sget t s i)

(* -- construction --------------------------------------------------------- *)

let on_deliver t f = t.deliver <- f
let on_bcast_deliver t f = t.bcast_deliver <- f
let on_drop t f = t.drop <- f
let set_broadcast t b =
  t.broadcast <- Some b;
  t.fibs <- [||]

let tx_time_ns t bytes =
  if bytes = t.tx_memo_bytes then t.tx_memo_ns
  else begin
    let ns = int_of_float (ceil (float_of_int (8 * bytes) /. t.bits_per_ns)) in
    t.tx_memo_bytes <- bytes;
    t.tx_memo_ns <- ns;
    ns
  end

let check_rate name r =
  if r < 0.0 || r >= 1.0 then invalid_arg ("Net.set_control_chaos: " ^ name)

let set_control_chaos t ~seed ~loss ~reorder ~dup =
  let loss = (loss : U.fraction :> float)
  and reorder = (reorder : U.fraction :> float)
  and dup = (dup : U.fraction :> float) in
  check_rate "loss" loss;
  check_rate "reorder" reorder;
  check_rate "dup" dup;
  match t.chaos with
  | Some ch ->
      (* Retune mid-run without reseeding: the decision stream continues,
         so flipping rates at a deterministic sim time stays deterministic. *)
      ch.loss <- loss;
      ch.reorder <- reorder;
      ch.dup <- dup
  | None ->
      if loss > 0.0 || reorder > 0.0 || dup > 0.0 then
        t.chaos <- Some { crng = Util.Rng.create seed; loss; reorder; dup }

let ctrl_lost t = t.ctrl_lost
let ctrl_lost_bytes t = t.ctrl_lost_bytes
let ctrl_reordered t = t.ctrl_reordered
let ctrl_dupped t = t.ctrl_dupped
let ctrl_hops t = t.ctrl_hops

(* -- gray failures -------------------------------------------------------- *)

let get_flaky t ~seed =
  match t.flaky with
  | Some fl -> fl
  | None ->
      let n = Topology.link_count t.topo in
      let fl =
        {
          frng = Util.Rng.create seed;
          floss = Array.make n 0.0;
          fspike = Array.make n 0.0;
          spike_ns = 0;
          factive = Bytes.make n '\000';
          ftx = Array.make n 0;
          flost = Array.make n 0;
        }
      in
      t.flaky <- Some fl;
      fl

let set_flaky_link t ~seed ?(spike_ns = 0) u v ~loss ~spike =
  let loss = (loss : U.fraction :> float)
  and spike = (spike : U.fraction :> float) in
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Net.set_flaky_link: loss";
  if spike < 0.0 || spike >= 1.0 then invalid_arg "Net.set_flaky_link: spike";
  if spike_ns < 0 then invalid_arg "Net.set_flaky_link: spike_ns";
  let a, b = Topology.cable_ids t.topo u v in
  let fl = get_flaky t ~seed in
  fl.floss.(a) <- loss;
  fl.floss.(b) <- loss;
  fl.fspike.(a) <- spike;
  fl.fspike.(b) <- spike;
  if spike_ns > 0 then fl.spike_ns <- spike_ns;
  let flag = if loss > 0.0 || spike > 0.0 then '\001' else '\000' in
  Bytes.set fl.factive a flag;
  Bytes.set fl.factive b flag

let clear_flaky_link t u v =
  match t.flaky with
  | None -> ()
  | Some fl ->
      let a, b = Topology.cable_ids t.topo u v in
      fl.floss.(a) <- 0.0;
      fl.floss.(b) <- 0.0;
      fl.fspike.(a) <- 0.0;
      fl.fspike.(b) <- 0.0;
      Bytes.set fl.factive a '\000';
      Bytes.set fl.factive b '\000'

let flaky_link_stats t u v =
  match t.flaky with
  | None -> (0, 0)
  | Some fl ->
      let a, b = Topology.cable_ids t.topo u v in
      (fl.ftx.(a) + fl.ftx.(b), fl.flost.(a) + fl.flost.(b))

let flaky_lost t = t.flaky_lost
let flaky_lost_bytes t = t.flaky_lost_bytes
let set_arrive_tap t f = t.arrive_tap <- Some f

(* -- routes --------------------------------------------------------------- *)

let intern_route t a = intern t a
let release_route t r = Arena.Ints.release t.slices r

(* -- physical failures ---------------------------------------------------- *)

let phys_link_up t l = Bytes.unsafe_get t.link_live l = '\001'

let recompute_link_live t l =
  let live =
    Array.unsafe_get t.link_up l
    && Array.unsafe_get t.nodes_up (Array.unsafe_get t.src_of l)
    && Array.unsafe_get t.nodes_up (Array.unsafe_get t.dst_of l)
  in
  Bytes.unsafe_set t.link_live l (if live then '\001' else '\000')

(* Watermark hysteresis: a link is flagged when its occupancy crosses
   [q_high] upward and unflagged only once it drains to [q_low], so a queue
   oscillating just under the high mark cannot flap the overload signal.
   Both checks are branch + byte read on the hot path, no allocation. *)
let note_q_grew t link_id ls =
  if ls.qbytes > t.q_high && Bytes.unsafe_get t.over link_id = '\000' then begin
    Bytes.unsafe_set t.over link_id '\001';
    t.over_count <- t.over_count + 1
  end

let note_q_shrank t link_id ls =
  if ls.qbytes <= t.q_low && Bytes.unsafe_get t.over link_id = '\001' then begin
    Bytes.unsafe_set t.over link_id '\000';
    t.over_count <- t.over_count - 1
  end

let blackhole t h =
  let m = fget t h f_meta in
  let b = meta_bytes m in
  t.blackholes <- t.blackholes + 1;
  t.blackholed_bytes <- t.blackholed_bytes + b;
  if meta_kind m >= code_bcast then
    t.blackholed_ctrl_bytes <- t.blackholed_ctrl_bytes + b
  else t.blackholed_data_bytes <- t.blackholed_data_bytes + b;
  t.on_blackhole h;
  free_pkt t h

let purge_link t link_id =
  let ls = t.links.(link_id) in
  if ls.busy then begin
    (* The head packet is mid-serialization and owned by the pending
       tx-completion event, which blackholes it itself; everything
       queued behind it dies now. *)
    let head = ls.head in
    let p = ref t.qnext.(head) in
    while !p >= 0 do
      let pkt = !p in
      p := t.qnext.(pkt);
      ls.qbytes <- ls.qbytes - meta_bytes (fget t pkt f_meta);
      blackhole t pkt
    done;
    t.qnext.(head) <- -1;
    ls.tail <- head
  end
  else begin
    let p = ref ls.head in
    while !p >= 0 do
      let pkt = !p in
      p := t.qnext.(pkt);
      ls.qbytes <- ls.qbytes - meta_bytes (fget t pkt f_meta);
      blackhole t pkt
    done;
    ls.head <- -1;
    ls.tail <- -1
  end;
  note_q_shrank t link_id ls

let fail_link t u v =
  let a, b = Topology.cable_ids t.topo u v in
  t.link_up.(a) <- false;
  t.link_up.(b) <- false;
  recompute_link_live t a;
  recompute_link_live t b;
  purge_link t a;
  purge_link t b

let restore_link t u v =
  let a, b = Topology.cable_ids t.topo u v in
  t.link_up.(a) <- true;
  t.link_up.(b) <- true;
  recompute_link_live t a;
  recompute_link_live t b

(* Refresh the folded liveness byte of every link incident to [u], both
   directions. *)
let refresh_node_links t u =
  Array.iter
    (fun (v, l) ->
      recompute_link_live t l;
      let back = Topology.find_link_id t.topo v u in
      if back >= 0 then recompute_link_live t back)
    (Topology.out_links t.topo u)

let fail_node t u =
  t.nodes_up.(u) <- false;
  refresh_node_links t u;
  (* Output queues live at the dead node; packets queued towards it at the
     neighbors die on arrival instead. *)
  Array.iter (fun (_, l) -> purge_link t l) (Topology.out_links t.topo u)

let restore_node t u =
  t.nodes_up.(u) <- true;
  refresh_node_links t u
let node_up t u = t.nodes_up.(u)
let on_blackhole t f = t.on_blackhole <- f
let blackholes t = t.blackholes
let blackholed_bytes t = t.blackholed_bytes
let blackholed_data_bytes t = t.blackholed_data_bytes
let blackholed_ctrl_bytes t = t.blackholed_ctrl_bytes

(* -- forwarding ----------------------------------------------------------- *)

(* The tree's FIB: one memo read per arrival or injection, then a walk
   over the set bits of the vertex's bytes. The bits are read in place
   through the topology's tree layout ([first_byte], [slot_link]): under
   -opaque a call to {!Topology.iter_tree_links} would not be inlined, and
   a FIB read is the per-hop work of a broadcast. *)
let fetch_fib t ~root ~tree =
  match t.broadcast with
  | None -> invalid_arg "Net: broadcast FIB not configured"
  | Some b ->
      (* Raises on an out-of-range root or tree, so the slot below exists. *)
      let f = (Broadcast.fib b ~src:root ~tree :> Bytes.t) in
      if Array.length t.fibs = 0 then begin
        t.fib_trees <- Broadcast.trees_per_source b;
        t.fibs <- Array.make (Topology.vertex_count t.topo * t.fib_trees) Bytes.empty;
        let lay = Topology.tree_layout t.topo in
        t.first_byte <- lay.first_byte;
        t.slot_link <- lay.slot_link
      end;
      t.fibs.((root * t.fib_trees) + tree) <- f;
      f

let fib t ~root ~tree =
  let v = Topology.version t.topo in
  if v <> t.fib_version then begin
    Array.fill t.fibs 0 (Array.length t.fibs) Bytes.empty;
    t.fib_version <- v
  end;
  let k = (root * t.fib_trees) + tree in
  if
    tree >= 0 && tree < t.fib_trees && k >= 0 && k < Array.length t.fibs
    && Bytes.length (Array.unsafe_get t.fibs k) > 0
  then Array.unsafe_get t.fibs k
  else fetch_fib t ~root ~tree

(* The link of the lowest set bit of byte [y], [bits] nonzero: a
   vertex's children are visited one set bit at a time. *)
let[@inline] child_link t y bits =
  Array.unsafe_get t.slot_link ((8 * y) + Char.code (String.unsafe_get Topology.lowest_bit bits))

(* Forwarding is mutually recursive with arrival: an arriving packet is
   re-enqueued towards its next hop. *)
let rec start_tx t link_id =
  let ls = t.links.(link_id) in
  if ls.head < 0 then ls.busy <- false
  else begin
    ls.busy <- true;
    Engine.after_key t.engine (tx_time_ns t (meta_bytes (fget t ls.head f_meta))) link_id
  end

and tx_done t link_id =
  let ls = t.links.(link_id) in
  let pkt = ls.head in
  let nx = Array.unsafe_get t.qnext pkt in
  ls.head <- nx;
  if nx < 0 then ls.tail <- -1;
  ls.qbytes <- ls.qbytes - meta_bytes (fget t pkt f_meta);
  note_q_shrank t link_id ls;
  (* Serialization of the next packet overlaps propagation. *)
  start_tx t link_id;
  if phys_link_up t link_id then propagate t link_id pkt else blackhole t pkt

(* One hop of propagation. Control packets pass through the chaos injector:
   three independent draws per hop (loss, reorder, duplicate) keep the RNG
   stream aligned across runs even when a rate is retuned mid-run. A
   reordered packet is held back a few extra hop latencies; a duplicate is a
   fresh pool record so the two copies advance their route cursors
   independently. *)
and propagate t link_id pkt =
  let dst = Array.unsafe_get t.dst_of link_id in
  let ctrl = meta_kind (fget t pkt f_meta) >= code_bcast in
  if ctrl then t.ctrl_hops <- t.ctrl_hops + 1;
  (* Gray-failure injection runs first: two draws per packet, flagged
     links only, so a run without flaky links draws nothing here. A flaky
     loss goes through the ordinary [drop] callback (not the blackhole
     path): upstairs it is indistinguishable from a queue drop, so
     payload accounting and per-packet retransmission just work and byte
     conservation holds. [-1] marks the packet as consumed. *)
  let spike_ns =
    match t.flaky with
    | Some fl when Bytes.unsafe_get fl.factive link_id = '\001' ->
        fl.ftx.(link_id) <- fl.ftx.(link_id) + 1;
        let lost = Util.Rng.below fl.frng fl.floss.(link_id) in
        let spiked = Util.Rng.below fl.frng fl.fspike.(link_id) in
        if lost then begin
          fl.flost.(link_id) <- fl.flost.(link_id) + 1;
          t.flaky_lost <- t.flaky_lost + 1;
          t.flaky_lost_bytes <-
            t.flaky_lost_bytes + meta_bytes (fget t pkt f_meta);
          t.drops <- t.drops + 1;
          t.drop pkt;
          free_pkt t pkt;
          -1
        end
        else if spiked then fl.spike_ns
        else 0
    | _ -> 0
  in
  if spike_ns >= 0 then begin
    match t.chaos with
    | Some ch when ctrl ->
        let lost = Util.Rng.below ch.crng ch.loss in
        let reordered = Util.Rng.below ch.crng ch.reorder in
        let dupped = Util.Rng.below ch.crng ch.dup in
        if lost then begin
          t.ctrl_lost <- t.ctrl_lost + 1;
          t.ctrl_lost_bytes <- t.ctrl_lost_bytes + meta_bytes (fget t pkt f_meta);
          free_pkt t pkt
        end
        else begin
          let delay =
            spike_ns
            +
            if reordered then begin
              t.ctrl_reordered <- t.ctrl_reordered + 1;
              Topology.hop_latency_ns * (2 + Util.Rng.int ch.crng 4)
            end
            else Topology.hop_latency_ns
          in
          schedule_arrival t delay dst pkt;
          if dupped then begin
            t.ctrl_dupped <- t.ctrl_dupped + 1;
            schedule_arrival t (delay + Topology.hop_latency_ns) dst (clone_pkt t pkt)
          end
        end
    | _ -> schedule_arrival t (Topology.hop_latency_ns + spike_ns) dst pkt
  end

(* Schedule [pkt]'s arrival at [dst], keyed by the packet. *)
and schedule_arrival t delay dst pkt =
  Array.unsafe_set t.hop_dst pkt dst;
  Engine.after_key t.engine delay (t.nlinks + pkt)

and enqueue_link t link_id pkt =
  if not (phys_link_up t link_id) then blackhole t pkt
  else begin
    let ls = t.links.(link_id) in
    let b = meta_bytes (fget t pkt f_meta) in
    if ls.qbytes + b > t.queue_capacity then begin
      t.drops <- t.drops + 1;
      t.drop pkt;
      free_pkt t pkt
    end
    else begin
      Array.unsafe_set t.qnext pkt (-1);
      if ls.head < 0 then ls.head <- pkt
      else Array.unsafe_set t.qnext ls.tail pkt;
      ls.tail <- pkt;
      ls.qbytes <- ls.qbytes + b;
      if ls.qbytes > ls.max_qbytes then ls.max_qbytes <- ls.qbytes;
      note_q_grew t link_id ls;
      if not ls.busy then start_tx t link_id
    end
  end

and arrive t node pkt =
  if not (Array.unsafe_get t.nodes_up node) then blackhole t pkt
  else begin
    (match t.arrive_tap with Some tap -> tap ~node pkt | None -> ());
    let m = fget t pkt f_meta in
    let k = meta_kind m in
    let b = meta_bytes m in
    if k >= code_bcast then t.control_wire <- t.control_wire + b
    else t.data_wire <- t.data_wire + b;
    if k = code_bcast || k = code_digest then begin
      t.bcast_deliver pkt ~node;
      let root = if k = code_bcast then fget t pkt f_p1 else fget t pkt f_p0 in
      let tree = if k = code_bcast then fget t pkt f_p2 else fget t pkt f_p1 in
      replicate t pkt ~root ~tree ~from:node
    end
    else begin
      let h = meta_hop m + 1 in
      fset t pkt f_meta (m + meta_hop_unit);
      let r = fget t pkt f_route in
      assert (sget t r h = node);
      if h = slen t r - 1 then begin
        t.deliver pkt;
        (* [free_pkt] with the kind and route already in registers. *)
        Arena.Ints.release t.slices r;
        if k = code_sync then begin
          Arena.Ints.release t.slices (fget t pkt f_p1);
          Arena.Ints.release t.slices (fget t pkt f_p2)
        end;
        Arena.free t.pool pkt
      end
      else begin
        let l = Topology.find_link_id t.topo node (sget t r (h + 1)) in
        if l < 0 then invalid_arg "Net: route crosses non-adjacent vertices";
        enqueue_link t l pkt
      end
    end
  end

(* A relayed copy goes on to its children in FIB order: a fresh copy for
   each child but the last, which gets the arrived packet itself, so a
   one-child relay copies nothing and a leaf frees it. A child is sent
   its copy once the next set bit is found, and the arrived packet goes
   to the link still held when the bits run out. Broadcast and digest
   copies carry the empty route and no slices, so a copy is its eight
   words. *)
and replicate t pkt ~root ~tree ~from =
  let fib = fib t ~root ~tree in
  let held = ref (-1) in
  for y = t.first_byte.(from) to t.first_byte.(from + 1) - 1 do
    let bits = ref (Char.code (Bytes.unsafe_get fib y)) in
    while !bits <> 0 do
      if !held >= 0 then begin
        let c = alloc_pkt t in
        for f = 0 to fields - 1 do
          fset t c f (fget t pkt f)
        done;
        enqueue_link t !held c
      end;
      held := child_link t y !bits;
      bits := !bits land (!bits - 1)
    done
  done;
  if !held < 0 then free_pkt t pkt else enqueue_link t !held pkt

(* Injection at the tree's root: a fresh packet per child. *)
and fanout t ~root ~tree ~from ~code ~bytes ~p0 ~p1 ~p2 ~p3 ~p4 ~p5 =
  let fib = fib t ~root ~tree in
  for y = t.first_byte.(from) to t.first_byte.(from + 1) - 1 do
    let bits = ref (Char.code (Bytes.unsafe_get fib y)) in
    while !bits <> 0 do
      let h = alloc_pkt t in
      fset t h f_meta (meta_make ~code ~bytes);
      fset t h f_route Arena.Ints.empty;
      fset t h f_p0 p0;
      fset t h f_p1 p1;
      fset t h f_p2 p2;
      fset t h f_p3 p3;
      fset t h f_p4 p4;
      fset t h f_p5 p5;
      enqueue_link t (child_link t y !bits) h;
      bits := !bits land (!bits - 1)
    done
  done

let create engine topo ?(queue_capacity = max_int) ~link_gbps () =
  let link_gbps = (link_gbps : U.gbps :> float) in
  if link_gbps <= 0.0 then invalid_arg "Net.create: link_gbps";
  let pool = Arena.create ~capacity:1024 ~width:fields () in
  let slices = Arena.Ints.create ~capacity:4096 () in
  let t =
    {
      engine;
      topo;
      pool;
      slices;
      st = Arena.data pool;
      sl = Arena.Ints.data slices;
      qnext = Array.make (Arena.capacity pool) (-1);
      hop_dst = Array.make (Arena.capacity pool) (-1);
      nlinks = Topology.link_count topo;
      links =
        Array.init (Topology.link_count topo) (fun _ ->
            { head = -1; tail = -1; busy = false; qbytes = 0; max_qbytes = 0 });
      src_of = Array.init (Topology.link_count topo) (Topology.link_src topo);
      dst_of = Array.init (Topology.link_count topo) (Topology.link_dst topo);
      queue_capacity;
      q_high = max_int;
      q_low = 0;
      over = Bytes.make (Topology.link_count topo) '\000';
      over_count = 0;
      bits_per_ns = link_gbps;
      tx_memo_bytes = -1;
      tx_memo_ns = 0;
      broadcast = None;
      fibs = [||];
      fib_trees = 0;
      fib_version = Topology.version topo;
      first_byte = [||];
      slot_link = [||];
      deliver = ignore;
      bcast_deliver = (fun _ ~node:_ -> ());
      drop = ignore;
      drops = 0;
      data_wire = 0;
      control_wire = 0;
      link_up = Array.make (Topology.link_count topo) true;
      nodes_up = Array.make (Topology.vertex_count topo) true;
      link_live = Bytes.make (Topology.link_count topo) '\001';
      on_blackhole = ignore;
      blackholes = 0;
      blackholed_bytes = 0;
      blackholed_data_bytes = 0;
      blackholed_ctrl_bytes = 0;
      chaos = None;
      ctrl_lost = 0;
      ctrl_lost_bytes = 0;
      ctrl_reordered = 0;
      ctrl_dupped = 0;
      ctrl_hops = 0;
      flaky = None;
      flaky_lost = 0;
      flaky_lost_bytes = 0;
      arrive_tap = None;
    }
  in
  Engine.set_handler engine (fun key ->
      if key < t.nlinks then tx_done t key
      else
        let pkt = key - t.nlinks in
        arrive t (Array.unsafe_get t.hop_dst pkt) pkt);
  t

(* -- injection ------------------------------------------------------------ *)

(* Validate before allocating so a rejected send leaks nothing. *)
let send_sr t ~code ~bytes ~route ~p0 ~p1 ~p2 ~p3 ~p4 ~p5 =
  if slen t route < 2 then
    invalid_arg "Net.send: route needs at least two vertices";
  let l = Topology.find_link_id t.topo (sget t route 0) (sget t route 1) in
  if l < 0 then invalid_arg "Net.send: route crosses non-adjacent vertices";
  let h = alloc_pkt t in
  fset t h f_meta (meta_make ~code ~bytes);
  fset t h f_route route;
  fset t h f_p0 p0;
  fset t h f_p1 p1;
  fset t h f_p2 p2;
  fset t h f_p3 p3;
  fset t h f_p4 p4;
  fset t h f_p5 p5;
  Arena.Ints.retain t.slices route;
  enqueue_link t l h

let send_data t ~flow ~seq ~last ~bytes ~route =
  send_sr t ~code:code_data ~bytes ~route ~p0:flow ~p1:seq
    ~p2:(if last then 1 else 0) ~p3:0 ~p4:0 ~p5:0

let send_ack t ~flow ~ackno ~bytes ~route =
  send_sr t ~code:code_ack ~bytes ~route ~p0:flow ~p1:ackno ~p2:0 ~p3:0 ~p4:0
    ~p5:0

let send_nack t ~root ~tree ~from_seq ~to_seq ~requester ~bytes ~route =
  send_sr t ~code:code_nack ~bytes ~route ~p0:root ~p1:tree ~p2:from_seq
    ~p3:to_seq ~p4:requester ~p5:0

let send_pause t ~node ~cls ~level ~window_kbps ~bytes ~route =
  if cls < 0 then invalid_arg "Net.send_pause: negative class";
  if level < 0 then invalid_arg "Net.send_pause: negative level";
  send_sr t ~code:code_pause ~bytes ~route ~p0:node ~p1:cls ~p2:level
    ~p3:window_kbps ~p4:0 ~p5:0

let send_sync t ~root ~entries ~last_seqs ~bytes ~route =
  (* Ownership of both slices transfers into the packet: the sync
     delivery/drop paths release f_p1/f_p2 when the packet dies. *)
  let flat = Array.of_list (List.concat_map (fun (id, tree) -> [ id; tree ]) entries) in
  let es = intern t flat in (* lint: allow L1 — receiver owns: freed with the sync packet *)
  let ls = intern t last_seqs in (* lint: allow L1 — receiver owns: freed with the sync packet *)
  send_sr t ~code:code_sync ~bytes ~route ~p0:root ~p1:es ~p2:ls ~p3:0 ~p4:0
    ~p5:0

let send_bcast t ?(seq = 0) ?(inc = 0) ~root ~tree ~bcast_id ~bytes () =
  fanout t ~root ~tree ~from:root ~code:code_bcast ~bytes ~p0:bcast_id ~p1:root
    ~p2:tree ~p3:seq ~p4:inc ~p5:0

let send_digest_tree t ~root ~tree ~epoch ~last_seq ~hash ~bytes =
  fanout t ~root ~tree ~from:root ~code:code_digest ~bytes ~p0:root ~p1:tree
    ~p2:epoch ~p3:last_seq ~p4:hash ~p5:0

(* -- telemetry ------------------------------------------------------------ *)

let set_queue_watermarks t ~high ~low =
  if high <= 0 then invalid_arg "Net.set_queue_watermarks: non-positive high";
  if low < 0 || low >= high then
    invalid_arg "Net.set_queue_watermarks: low must be in [0, high)";
  t.q_high <- high;
  t.q_low <- low;
  (* Re-evaluate standing queues against the new thresholds. *)
  Array.iteri (fun l ls -> note_q_grew t l ls; note_q_shrank t l ls) t.links

let overloaded_links t = t.over_count
let link_overloaded t ~link_id = Bytes.get t.over link_id = '\001'

let packets_high_water t = Arena.high_water t.pool
let packets_in_flight t = Arena.live t.pool
let max_queue_bytes t = Array.map (fun ls -> ls.max_qbytes) t.links
let drops t = t.drops
let data_bytes_on_wire t = U.bytes (float_of_int t.data_wire)
let control_bytes_on_wire t = U.bytes (float_of_int t.control_wire)

let reset_wire_counters t =
  t.data_wire <- 0;
  t.control_wire <- 0
