(** On-the-wire packet formats (paper Fig. 6).

    Data packets are variable sized with a 35-byte header:
    type(1) rlen(1) ridx(1) flow(4) src(2) dst(2) seq(4) checksum(2) plen(2)
    route(16). The route field holds up to 42 hops of 3 bits each, every hop
    selecting one of at most eight outgoing links; [ridx] is the index of
    the next hop and is incremented by every forwarder.

    Broadcast packets are fixed 16 bytes:
    type(1) src(2) dst(2) weight(1) priority(1) demand(4, Kbps) tree(1)
    rp(1) pad(1) checksum(2). *)

val data_header_size : int
(** 35 bytes. *)

val broadcast_size : int
(** 16 bytes. *)

val seq_broadcast_size : int
(** 24 bytes: the 16-byte broadcast layout extended with a 32-bit flow id, a
    32-bit per-(source, tree) sequence number and one pad byte. The overhead
    model ({!Broadcast.bytes_per_broadcast}) keeps the paper's 16-byte
    constant; the loss-tolerant control plane charges this size. *)

val digest_size : int
(** 22 bytes: the periodic anti-entropy digest. *)

val nack_size : int
(** 16 bytes: a missing-range retransmission request. *)

val join_size : int
(** 10 bytes: a restarted node's rejoin announcement. *)

val snapshot_req_size : int
(** 12 bytes: a full-state catch-up request. *)

val pause_size : int
(** 11 bytes: a backpressure PAUSE from a congested receiver. *)

val sync_size : flows:int -> trees:int -> int
(** Bytes of a full-state sync repairing a diverged replica: a 16-byte
    header, 5 bytes per live flow (its 32-bit id and 8-bit tree) and a
    4-byte last sequence number per broadcast tree. Raises
    [Invalid_argument] on a negative count. *)

val max_route_hops : int
(** 42: the 128-bit route field at 3 bits per hop. *)

type event = Flow_start | Flow_finish | Demand_update | Route_change

type data_header = {
  flow : int;  (** 32-bit flow identifier *)
  src : int;  (** 16-bit source node *)
  dst : int;  (** 16-bit destination node *)
  seq : int;  (** 32-bit sequence number *)
  plen : int;  (** 16-bit payload length *)
  route : int array;  (** per-hop outgoing-link selectors, 0..7 each *)
  ridx : int;  (** index of the next hop in [route] *)
}

type broadcast = {
  event : event;
  bsrc : int;  (** flow source *)
  bdst : int;  (** flow destination *)
  weight : int;  (** allocation weight, 1..255 *)
  priority : int;  (** 0 is highest *)
  demand_kbps : int;  (** current demand, up to ~4 Tbps *)
  tree : int;  (** broadcast-tree identifier *)
  rp : Routing.protocol;
}

val encode_data : data_header -> bytes
(** Header bytes with a valid checksum. Raises [Invalid_argument] when a
    field exceeds its width. *)

val decode_data : bytes -> (data_header, string) result
(** Fails on short input, bad type, or checksum mismatch. *)

val encode_broadcast : broadcast -> bytes
val decode_broadcast : bytes -> (broadcast, string) result

(** {2 Loss-tolerant control plane (reliable broadcast)}

    Three formats let the control plane survive packet loss: the sequenced
    broadcast carries a per-(source, tree) monotonic sequence number (plus
    the 32-bit flow id that the 16-byte format omits, so finish / demand /
    route events can be correlated with their start); the digest is a
    periodic anti-entropy beacon [(source, tree, epoch, last sequence,
    state hash)] that exposes a loss even when the {e last} packet of a
    burst was dropped; the NACK requests retransmission of an inclusive
    missing range from the origin. *)

type digest = {
  dsrc : int;  (** origin node *)
  dtree : int;  (** broadcast tree the digest covers *)
  epoch : int;  (** the origin's incarnation and round: {!pack_epoch} *)
  last_seq : int;  (** highest sequence number sent on this tree *)
  state_hash : int64;
      (** set hash of the origin's live flows on this tree: every event of
          a flow rides one tree, so a replica caught up on [dtree] can
          compare it exactly *)
}

type nack = {
  nsrc : int;  (** origin whose packets are missing *)
  nrequester : int;  (** node asking for retransmission *)
  ntree : int;
  nfrom : int;  (** first missing sequence number *)
  nto : int;  (** last missing sequence number, inclusive *)
}

val encode_seq_broadcast : broadcast -> flow:int -> seq:int -> bytes
(** 24-byte sequenced event. Raises [Invalid_argument] when a field exceeds
    its width (flow and seq are 32-bit). *)

val decode_seq_broadcast : bytes -> (broadcast * int * int, string) result
(** Returns [(packet, flow, seq)]. *)

val encode_digest : digest -> bytes
val decode_digest : bytes -> (digest, string) result

val pack_epoch : inc:int -> epoch:int -> int
(** A digest's 32-bit epoch word: the incarnation [inc] in the upper 16
    bits over the low 16 bits of the round counter [epoch], which may wrap,
    since nothing orders rounds. With [inc] = 0 it is [epoch] for the first
    65,535 rounds. Receivers do order incarnations ({!Replicas.admit}),
    which bounds an origin to 65,535 restarts: raises [Invalid_argument]
    unless [0 <= inc < 65536]. *)

val unpack_inc : int -> int
(** The incarnation a {!pack_epoch} word carries. *)

val encode_nack : nack -> bytes
(** Raises [Invalid_argument] on an empty range ([nto < nfrom]). *)

val decode_nack : bytes -> (nack, string) result

(** {2 Crash-restart rejoin}

    A node that crashes loses its soft state (receive windows, view, flow
    bookkeeping) and comes back cold under a fresh incarnation number. The
    JOIN announces the restart rack-wide so peers drop windows keyed to the
    old incarnation; the SNAPSHOT-REQ asks one origin for a full-state sync
    over the anti-entropy catch-up path. *)

type join = {
  jnode : int;  (** the restarted node *)
  jinc : int;  (** its fresh 32-bit incarnation number *)
}

type snapshot_req = {
  sroot : int;  (** origin whose state is requested *)
  srequester : int;  (** node asking for the snapshot *)
  sinc : int;  (** requester's incarnation of record for [sroot] *)
}

val encode_join : join -> bytes
(** 10-byte rejoin announcement. Raises [Invalid_argument] when a field
    exceeds its width. *)

val decode_join : bytes -> (join, string) result

val encode_snapshot_req : snapshot_req -> bytes
(** 12-byte full-state catch-up request. *)

val decode_snapshot_req : bytes -> (snapshot_req, string) result

(** {2 Overload backpressure}

    A receiver whose output queue crosses its high watermark PAUSEs the
    senders feeding it: the packet names the congested node, the lowest
    priority class it still admits, and the multiplicative back-off level
    senders must apply (each level halves the pacing rate; level 0 is the
    all-clear that begins additive recovery). The window field is an
    advisory per-class rate ceiling in Kbps, 0 when the receiver offers no
    estimate. *)

type pause = {
  pnode : int;  (** the congested node *)
  pclass : int;  (** lowest priority class still admitted (0 is highest) *)
  plevel : int;  (** multiplicative back-off level; 0 = recovered *)
  pwindow_kbps : int;  (** advisory rate window, 0 = none *)
}

val encode_pause : pause -> bytes
(** 11-byte backpressure notification. Raises [Invalid_argument] when a
    field exceeds its width. *)

val decode_pause : bytes -> (pause, string) result

(** {2 Batched control-plane codec}

    Control traffic travels in bursts — an epoch's digests, a NACK repair's
    replayed events — so the codec can pack a heterogeneous run of items
    into one contiguous buffer: each item is a 1-byte format code followed
    by its standard encoding, checksum included. Per-item checksums mean a
    corrupted item is reported with its offset instead of poisoning the
    whole batch. Data packets are not batchable (their route field is
    bit-packed at dynamic offsets). *)

type batch_item =
  | Item_broadcast of broadcast
  | Item_seq_broadcast of broadcast * int * int
      (** [(packet, flow, seq)] — a sequenced control event *)
  | Item_digest of digest
  | Item_nack of nack

val batch_size : batch_item list -> int
(** Encoded size in bytes: each item costs its format size plus one. *)

val encode_batch : batch_item list -> bytes
(** One contiguous buffer; the empty list encodes to zero bytes. Raises
    [Invalid_argument] when any item's field exceeds its width. *)

val decode_batch : bytes -> (batch_item list, string) result
(** Walks the buffer with a running offset; fails (with the offending
    offset) on an unknown format code, a truncated final item, or a
    per-item decode error. [decode_batch (encode_batch items) = Ok items]. *)

val route_selectors : Routing.ctx -> int array -> int array
(** [route_selectors ctx path] converts a vertex path to per-hop 3-bit link
    selectors: at hop [i], the index of the link towards [path.(i+1)] within
    [Topology.out_links] of [path.(i)]. Raises when a node has more than 8
    links (the widest selector a 3-bit hop can express) or the path is
    longer than {!max_route_hops}. *)

val apply_selector : Topology.t -> int -> int -> int
(** [apply_selector topo node sel] is the neighbor reached from [node] via
    outgoing-link index [sel]. *)

val checksum : bytes -> int
(** 16-bit ones'-complement checksum over a buffer. *)

val corrupt : Util.Rng.t -> bytes -> bytes
(** Flip one random bit; for loss/corruption tests. *)
