let data_header_size = 35
let broadcast_size = 16
let seq_broadcast_size = 24
let digest_size = 22
let nack_size = 16
let join_size = 10
let snapshot_req_size = 12
let pause_size = 11

(* A full-state sync: a 16-byte header, then each live flow's 32-bit id
   with its 8-bit tree, then each tree's 32-bit last sequence number. *)
let sync_size ~flows ~trees =
  if flows < 0 || trees < 0 then invalid_arg "Wire.sync_size";
  16 + (5 * flows) + (4 * trees)

let max_route_hops = 42
let max_links_per_node = 8

type event = Flow_start | Flow_finish | Demand_update | Route_change

type data_header = {
  flow : int;
  src : int;
  dst : int;
  seq : int;
  plen : int;
  route : int array;
  ridx : int;
}

type broadcast = {
  event : event;
  bsrc : int;
  bdst : int;
  weight : int;
  priority : int;
  demand_kbps : int;
  tree : int;
  rp : Routing.protocol;
}

type digest = {
  dsrc : int;
  dtree : int;
  epoch : int;
  last_seq : int;
  state_hash : int64;
}

type nack = {
  nsrc : int;
  nrequester : int;
  ntree : int;
  nfrom : int;
  nto : int;
}

type join = { jnode : int; jinc : int }
type snapshot_req = { sroot : int; srequester : int; sinc : int }
type pause = { pnode : int; pclass : int; plevel : int; pwindow_kbps : int }

(* Packet type codes. 0 is a data packet; broadcast packets carry the event
   kind directly in the type byte; digests and NACKs get their own codes,
   as do the crash-restart rejoin formats. *)
let type_data = 0
let type_digest = 5
let type_nack = 6
let type_join = 7
let type_snapshot_req = 8
let type_pause = 9

let type_of_event = function
  | Flow_start -> 1
  | Flow_finish -> 2
  | Demand_update -> 3
  | Route_change -> 4

let event_of_type = function
  | 1 -> Some Flow_start
  | 2 -> Some Flow_finish
  | 3 -> Some Demand_update
  | 4 -> Some Route_change
  | _ -> None

(* -- field access ------------------------------------------------------- *)

let check_width name v bits =
  if v < 0 || v lsr bits <> 0 then
    invalid_arg (Printf.sprintf "Wire: field %s = %d exceeds %d bits" name v bits)

let put8 b off v = Bytes.set_uint8 b off v
let put16 b off v = Bytes.set_uint16_be b off v

let put32 b off v =
  Bytes.set_uint16_be b off (v lsr 16);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

let get8 = Bytes.get_uint8
let get16 = Bytes.get_uint16_be
let get32 b off = (get16 b off lsl 16) lor get16 b (off + 2)
let put64 b off v = Bytes.set_int64_be b off v
let get64 b off = Bytes.get_int64_be b off

(* -- checksum ----------------------------------------------------------- *)

(* Ones'-complement sum over [off, off + len): word boundaries are relative
   to [off], so an item checksums identically wherever it sits in a batch
   buffer. [word_sum] adds the words without folding the carries, which
   [fold] does once at the end. *)
let word_sum b off len =
  let fin = off + len in
  let sum = ref 0 in
  let i = ref off in
  while !i + 1 < fin do
    sum := !sum + get16 b !i;
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (get8 b (fin - 1) lsl 8);
  !sum

let fold sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let checksum_sub b off len = fold (word_sum b off len)
let checksum b = checksum_sub b 0 (Bytes.length b)

(* Verify an item's checksum without writing to the buffer, which several
   readers may share. The encoder summed the range with the checksum
   field still zero: that is the range's sum less the stored field's
   share of it, the stored value when the field starts on a word of the
   item and the value with its bytes swapped when it straddles two.
   [stored] is read by the caller so the U3 symmetry walk sees the
   checksum field read back at its written offset. *)
let verify_sub b ~off ~len ~cksum_off ~stored =
  let share =
    if (cksum_off - off) land 1 = 0 then stored
    else ((stored land 0xFF) lsl 8) lor (stored lsr 8)
  in
  stored = fold (word_sum b off len - share)

(* -- data packets ------------------------------------------------------- *)

(* Offsets in the data header. *)
let off_type = 0
let off_rlen = 1
let off_ridx = 2
let off_flow = 3
let off_src = 7
let off_dst = 9
let off_seq = 11
let off_cksum = 15
let off_plen = 17
let off_route = 19

let encode_data h =
  check_width "flow" h.flow 32;
  check_width "src" h.src 16;
  check_width "dst" h.dst 16;
  check_width "seq" h.seq 32;
  check_width "plen" h.plen 16;
  let rlen = Array.length h.route in
  if rlen > max_route_hops then invalid_arg "Wire.encode_data: route too long";
  if h.ridx < 0 || h.ridx > rlen then invalid_arg "Wire.encode_data: bad ridx";
  Array.iter (fun s -> check_width "route hop" s 3) h.route;
  let b = Bytes.make data_header_size '\000' in
  put8 b off_type type_data;
  put8 b off_rlen rlen;
  put8 b off_ridx h.ridx;
  put32 b off_flow h.flow;
  put16 b off_src h.src;
  put16 b off_dst h.dst;
  put32 b off_seq h.seq;
  put16 b off_plen h.plen;
  (* 3-bit hop selectors packed little-end first into the 128-bit field. *)
  Array.iteri
    (fun i s ->
      let bit = 3 * i in
      let byte = off_route + (bit / 8) and shift = bit mod 8 in
      let cur = get8 b byte in
      put8 b byte (cur lor ((s lsl shift) land 0xFF));
      if shift > 5 then begin
        let cur = get8 b (byte + 1) in
        put8 b (byte + 1) (cur lor (s lsr (8 - shift)))
      end)
    h.route;
  put16 b off_cksum (checksum b);
  b

let decode_data b =
  if Bytes.length b < data_header_size then Error "short data header"
  else if get8 b off_type <> type_data then Error "not a data packet"
  else begin
    if
      not
        (verify_sub b ~off:0 ~len:data_header_size ~cksum_off:off_cksum
           ~stored:(get16 b off_cksum))
    then Error "data checksum mismatch"
    else begin
      let rlen = get8 b off_rlen in
      if rlen > max_route_hops then Error "route length out of range"
      else begin
        let route =
          Array.init rlen (fun i ->
              let bit = 3 * i in
              let byte = off_route + (bit / 8) and shift = bit mod 8 in
              let lo = get8 b byte lsr shift in
              let v =
                if shift > 5 then lo lor (get8 b (byte + 1) lsl (8 - shift)) else lo
              in
              v land 0x7)
        in
        Ok
          {
            flow = get32 b off_flow;
            src = get16 b off_src;
            dst = get16 b off_dst;
            seq = get32 b off_seq;
            plen = get16 b off_plen;
            route;
            ridx = get8 b off_ridx;
          }
      end
    end
  end

(* -- broadcast packets --------------------------------------------------- *)

let boff_type = 0
let boff_src = 1
let boff_dst = 3
let boff_weight = 5
let boff_priority = 6
let boff_demand = 7
let boff_tree = 11
let boff_rp = 12
let boff_cksum = 14

(* Writer into a caller-provided buffer at a symbolic base [off] (the item's
   origin in a batch; the slice must be zero-filled). The U3 checker
   resolves [off] to 0, so these stay statically proven against the same
   budgets as the whole-buffer forms below. *)
let encode_broadcast_at b ~off p =
  check_width "src" p.bsrc 16;
  check_width "dst" p.bdst 16;
  check_width "weight" p.weight 8;
  check_width "priority" p.priority 8;
  check_width "demand" p.demand_kbps 32;
  check_width "tree" p.tree 8;
  put8 b (off + boff_type) (type_of_event p.event);
  put16 b (off + boff_src) p.bsrc;
  put16 b (off + boff_dst) p.bdst;
  put8 b (off + boff_weight) p.weight;
  put8 b (off + boff_priority) p.priority;
  put32 b (off + boff_demand) p.demand_kbps;
  put8 b (off + boff_tree) p.tree;
  put8 b (off + boff_rp) (Routing.protocol_to_int p.rp);
  put16 b (off + boff_cksum) (checksum_sub b off broadcast_size)

let decode_broadcast_at b ~off =
  if off < 0 || off + broadcast_size > Bytes.length b then
    Error "short broadcast packet"
  else if
    not
      (verify_sub b ~off ~len:broadcast_size ~cksum_off:(off + boff_cksum)
         ~stored:(get16 b (off + boff_cksum)))
  then Error "broadcast checksum mismatch"
  else begin
    match event_of_type (get8 b (off + boff_type)) with
    | None -> Error "unknown broadcast type"
    | Some event -> (
        match Routing.protocol_of_int (get8 b (off + boff_rp)) with
        | None -> Error "unknown routing protocol"
        | Some rp ->
            Ok
              {
                event;
                bsrc = get16 b (off + boff_src);
                bdst = get16 b (off + boff_dst);
                weight = get8 b (off + boff_weight);
                priority = get8 b (off + boff_priority);
                demand_kbps = get32 b (off + boff_demand);
                tree = get8 b (off + boff_tree);
                rp;
              })
  end

let encode_broadcast p =
  let b = Bytes.make broadcast_size '\000' in
  encode_broadcast_at b ~off:0 p;
  b

let decode_broadcast b =
  if Bytes.length b <> broadcast_size then Error "broadcast packet must be 16 bytes"
  else decode_broadcast_at b ~off:0

(* -- sequenced broadcast (loss-tolerant control plane) -------------------- *)

(* The 16-byte event format above has no room for ordering metadata, so the
   reliable control plane extends it: the same layout through [rp], then a
   32-bit flow id (correlating finish/demand/route events with the start),
   a 32-bit per-(source, tree) sequence number, one pad byte and the
   checksum — 24 bytes on the wire. The overhead model keeps quoting the
   paper's 16-byte constant; simulations of the reliable plane charge
   [seq_broadcast_size]. *)

let sboff_flow = 13
let sboff_seq = 17
let sboff_cksum = 22

let encode_seq_broadcast_at b ~off p ~flow ~seq =
  check_width "src" p.bsrc 16;
  check_width "dst" p.bdst 16;
  check_width "weight" p.weight 8;
  check_width "priority" p.priority 8;
  check_width "demand" p.demand_kbps 32;
  check_width "tree" p.tree 8;
  check_width "flow" flow 32;
  check_width "seq" seq 32;
  put8 b (off + boff_type) (type_of_event p.event);
  put16 b (off + boff_src) p.bsrc;
  put16 b (off + boff_dst) p.bdst;
  put8 b (off + boff_weight) p.weight;
  put8 b (off + boff_priority) p.priority;
  put32 b (off + boff_demand) p.demand_kbps;
  put8 b (off + boff_tree) p.tree;
  put8 b (off + boff_rp) (Routing.protocol_to_int p.rp);
  put32 b (off + sboff_flow) flow;
  put32 b (off + sboff_seq) seq;
  put16 b (off + sboff_cksum) (checksum_sub b off seq_broadcast_size)

let decode_seq_broadcast_at b ~off =
  if off < 0 || off + seq_broadcast_size > Bytes.length b then
    Error "short sequenced broadcast"
  else if
    not
      (verify_sub b ~off ~len:seq_broadcast_size ~cksum_off:(off + sboff_cksum)
         ~stored:(get16 b (off + sboff_cksum)))
  then Error "sequenced broadcast checksum mismatch"
  else begin
    match event_of_type (get8 b (off + boff_type)) with
    | None -> Error "unknown broadcast type"
    | Some event -> (
        match Routing.protocol_of_int (get8 b (off + boff_rp)) with
        | None -> Error "unknown routing protocol"
        | Some rp ->
            Ok
              ( {
                  event;
                  bsrc = get16 b (off + boff_src);
                  bdst = get16 b (off + boff_dst);
                  weight = get8 b (off + boff_weight);
                  priority = get8 b (off + boff_priority);
                  demand_kbps = get32 b (off + boff_demand);
                  tree = get8 b (off + boff_tree);
                  rp;
                },
                get32 b (off + sboff_flow),
                get32 b (off + sboff_seq) ))
  end

(* In-place reading of a sequenced broadcast: the check gives the
   decoder's verdict, error for error and in the decoder's order, without
   building the packet; the readers then take single fields of a checked
   item. Nothing here writes to the buffer. The 16-byte format shares the
   layout through [rp], so [event_at], [tree_at] and [same_broadcast_at]
   read either. *)
let check_event_at b ~off ~len ~cksum_off ~short ~mismatch =
  if off < 0 || off + len > Bytes.length b then Error short
  else if
    not (verify_sub b ~off ~len ~cksum_off:(off + cksum_off) ~stored:(get16 b (off + cksum_off)))
  then Error mismatch
  else if Option.is_none (event_of_type (get8 b (off + boff_type))) then
    Error "unknown broadcast type"
  else if Option.is_none (Routing.protocol_of_int (get8 b (off + boff_rp))) then
    Error "unknown routing protocol"
  else Ok ()

let check_broadcast_at b ~off =
  check_event_at b ~off ~len:broadcast_size ~cksum_off:boff_cksum
    ~short:"short broadcast packet" ~mismatch:"broadcast checksum mismatch"

let check_seq_broadcast_at b ~off =
  check_event_at b ~off ~len:seq_broadcast_size ~cksum_off:sboff_cksum
    ~short:"short sequenced broadcast" ~mismatch:"sequenced broadcast checksum mismatch"

let check_seq_broadcast b =
  if Bytes.length b <> seq_broadcast_size then
    Error "sequenced broadcast must be 24 bytes"
  else check_seq_broadcast_at b ~off:0

let event_at b ~off =
  match event_of_type (get8 b (off + boff_type)) with
  | Some e -> e
  | None -> invalid_arg "Wire.event_at: unknown broadcast type"

let tree_at b ~off = get8 b (off + boff_tree)
let flow_at b ~off = get32 b (off + sboff_flow)
let seq_at b ~off = get32 b (off + sboff_seq)

let same_broadcast_at b ~off p =
  get8 b (off + boff_type) = type_of_event p.event
  && get16 b (off + boff_src) = p.bsrc
  && get16 b (off + boff_dst) = p.bdst
  && get8 b (off + boff_weight) = p.weight
  && get8 b (off + boff_priority) = p.priority
  && get32 b (off + boff_demand) = p.demand_kbps
  && get8 b (off + boff_tree) = p.tree
  && get8 b (off + boff_rp) = Routing.protocol_to_int p.rp

let encode_seq_broadcast p ~flow ~seq =
  let b = Bytes.make seq_broadcast_size '\000' in
  encode_seq_broadcast_at b ~off:0 p ~flow ~seq;
  b

let decode_seq_broadcast b =
  if Bytes.length b <> seq_broadcast_size then
    Error "sequenced broadcast must be 24 bytes"
  else decode_seq_broadcast_at b ~off:0

(* -- anti-entropy digest --------------------------------------------------- *)

let goff_src = 1
let goff_tree = 3
let goff_epoch = 4
let goff_last = 8
let goff_hash = 12
let goff_cksum = 20

let encode_digest_at b ~off d =
  check_width "src" d.dsrc 16;
  check_width "tree" d.dtree 8;
  check_width "epoch" d.epoch 32;
  check_width "last_seq" d.last_seq 32;
  put8 b (off + boff_type) type_digest;
  put16 b (off + goff_src) d.dsrc;
  put8 b (off + goff_tree) d.dtree;
  put32 b (off + goff_epoch) d.epoch;
  put32 b (off + goff_last) d.last_seq;
  put64 b (off + goff_hash) d.state_hash;
  put16 b (off + goff_cksum) (checksum_sub b off digest_size)

let decode_digest_at b ~off =
  if off < 0 || off + digest_size > Bytes.length b then Error "short digest"
  else if get8 b (off + boff_type) <> type_digest then Error "not a digest packet"
  else if
    not
      (verify_sub b ~off ~len:digest_size ~cksum_off:(off + goff_cksum)
         ~stored:(get16 b (off + goff_cksum)))
  then Error "digest checksum mismatch"
  else
    Ok
      {
        dsrc = get16 b (off + goff_src);
        dtree = get8 b (off + goff_tree);
        epoch = get32 b (off + goff_epoch);
        last_seq = get32 b (off + goff_last);
        state_hash = get64 b (off + goff_hash);
      }

let encode_digest d =
  let b = Bytes.make digest_size '\000' in
  encode_digest_at b ~off:0 d;
  b

let decode_digest b =
  if Bytes.length b <> digest_size then Error "digest must be 22 bytes"
  else decode_digest_at b ~off:0

(* A digest has no spare payload word, so its epoch word carries the
   incarnation too; only incarnations are ever compared. *)
let epoch_bits = 16

let pack_epoch ~inc ~epoch =
  if inc < 0 || inc lsr epoch_bits <> 0 then invalid_arg "Wire.pack_epoch: incarnation";
  (inc lsl epoch_bits) lor (epoch land ((1 lsl epoch_bits) - 1))

let unpack_inc word = word lsr epoch_bits

(* -- NACK ------------------------------------------------------------------ *)

let noff_src = 1
let noff_req = 3
let noff_tree = 5
let noff_from = 6
let noff_to = 10
let noff_cksum = 14

let encode_nack_at b ~off n =
  check_width "src" n.nsrc 16;
  check_width "requester" n.nrequester 16;
  check_width "tree" n.ntree 8;
  check_width "from" n.nfrom 32;
  check_width "to" n.nto 32;
  if n.nto < n.nfrom then invalid_arg "Wire.encode_nack: empty range";
  put8 b (off + boff_type) type_nack;
  put16 b (off + noff_src) n.nsrc;
  put16 b (off + noff_req) n.nrequester;
  put8 b (off + noff_tree) n.ntree;
  put32 b (off + noff_from) n.nfrom;
  put32 b (off + noff_to) n.nto;
  put16 b (off + noff_cksum) (checksum_sub b off nack_size)

let decode_nack_at b ~off =
  if off < 0 || off + nack_size > Bytes.length b then Error "short NACK"
  else if get8 b (off + boff_type) <> type_nack then Error "not a NACK packet"
  else if
    not
      (verify_sub b ~off ~len:nack_size ~cksum_off:(off + noff_cksum)
         ~stored:(get16 b (off + noff_cksum)))
  then Error "NACK checksum mismatch"
  else begin
    let n =
      {
        nsrc = get16 b (off + noff_src);
        nrequester = get16 b (off + noff_req);
        ntree = get8 b (off + noff_tree);
        nfrom = get32 b (off + noff_from);
        nto = get32 b (off + noff_to);
      }
    in
    if n.nto < n.nfrom then Error "NACK range empty" else Ok n
  end

let encode_nack n =
  let b = Bytes.make nack_size '\000' in
  encode_nack_at b ~off:0 n;
  b

let decode_nack b =
  if Bytes.length b <> nack_size then Error "NACK must be 16 bytes"
  else decode_nack_at b ~off:0

(* -- crash-restart rejoin (JOIN / SNAPSHOT-REQ) --------------------------- *)

(* A restarted node announces itself with a JOIN carrying its fresh
   incarnation number; receivers drop any receive window still keyed to an
   older incarnation of that origin. The SNAPSHOT-REQ asks an origin for a
   full-state sync (the PR 4 catch-up path) when the joiner's windows start
   cold. Both are fixed-size, checksummed, and follow the [_at ~off]
   writer/reader discipline so the U3 symbolic walk proves them. *)

let joff_node = 1
let joff_inc = 3
let joff_cksum = 8

let encode_join_at b ~off j =
  check_width "node" j.jnode 16;
  check_width "inc" j.jinc 32;
  put8 b (off + boff_type) type_join;
  put16 b (off + joff_node) j.jnode;
  put32 b (off + joff_inc) j.jinc;
  put16 b (off + joff_cksum) (checksum_sub b off join_size)

let decode_join_at b ~off =
  if off < 0 || off + join_size > Bytes.length b then Error "short JOIN"
  else if get8 b (off + boff_type) <> type_join then Error "not a JOIN packet"
  else if
    not
      (verify_sub b ~off ~len:join_size ~cksum_off:(off + joff_cksum)
         ~stored:(get16 b (off + joff_cksum)))
  then Error "JOIN checksum mismatch"
  else Ok { jnode = get16 b (off + joff_node); jinc = get32 b (off + joff_inc) }

let encode_join j =
  let b = Bytes.make join_size '\000' in
  encode_join_at b ~off:0 j;
  b

let decode_join b =
  if Bytes.length b <> join_size then Error "JOIN must be 10 bytes"
  else decode_join_at b ~off:0

let soff_root = 1
let soff_req = 3
let soff_inc = 5
let soff_cksum = 10

let encode_snapshot_req_at b ~off s =
  check_width "root" s.sroot 16;
  check_width "requester" s.srequester 16;
  check_width "inc" s.sinc 32;
  put8 b (off + boff_type) type_snapshot_req;
  put16 b (off + soff_root) s.sroot;
  put16 b (off + soff_req) s.srequester;
  put32 b (off + soff_inc) s.sinc;
  put16 b (off + soff_cksum) (checksum_sub b off snapshot_req_size)

let decode_snapshot_req_at b ~off =
  if off < 0 || off + snapshot_req_size > Bytes.length b then
    Error "short SNAPSHOT-REQ"
  else if get8 b (off + boff_type) <> type_snapshot_req then
    Error "not a SNAPSHOT-REQ packet"
  else if
    not
      (verify_sub b ~off ~len:snapshot_req_size ~cksum_off:(off + soff_cksum)
         ~stored:(get16 b (off + soff_cksum)))
  then Error "SNAPSHOT-REQ checksum mismatch"
  else
    Ok
      {
        sroot = get16 b (off + soff_root);
        srequester = get16 b (off + soff_req);
        sinc = get32 b (off + soff_inc);
      }

let encode_snapshot_req s =
  let b = Bytes.make snapshot_req_size '\000' in
  encode_snapshot_req_at b ~off:0 s;
  b

let decode_snapshot_req b =
  if Bytes.length b <> snapshot_req_size then Error "SNAPSHOT-REQ must be 12 bytes"
  else decode_snapshot_req_at b ~off:0

(* -- backpressure PAUSE --------------------------------------------------- *)

(* A congested receiver paces its senders down: the PAUSE names the choking
   node, the lowest priority class it still admits, the back-off level the
   sender must apply (each level halves the pacing rate; 0 means recovered)
   and an advisory per-class rate window in Kbps (0 = no advice). Fixed
   size, checksummed, [_at ~off] discipline like the rejoin formats so the
   U3 symbolic walk proves exact fill and encode/decode symmetry. *)

let poff_node = 1
let poff_class = 3
let poff_level = 4
let poff_window = 5
let poff_cksum = 9

let encode_pause_at b ~off p =
  check_width "node" p.pnode 16;
  check_width "class" p.pclass 8;
  check_width "level" p.plevel 8;
  check_width "window" p.pwindow_kbps 32;
  put8 b (off + boff_type) type_pause;
  put16 b (off + poff_node) p.pnode;
  put8 b (off + poff_class) p.pclass;
  put8 b (off + poff_level) p.plevel;
  put32 b (off + poff_window) p.pwindow_kbps;
  put16 b (off + poff_cksum) (checksum_sub b off pause_size)

let decode_pause_at b ~off =
  if off < 0 || off + pause_size > Bytes.length b then Error "short PAUSE"
  else if get8 b (off + boff_type) <> type_pause then Error "not a PAUSE packet"
  else if
    not
      (verify_sub b ~off ~len:pause_size ~cksum_off:(off + poff_cksum)
         ~stored:(get16 b (off + poff_cksum)))
  then Error "PAUSE checksum mismatch"
  else
    Ok
      {
        pnode = get16 b (off + poff_node);
        pclass = get8 b (off + poff_class);
        plevel = get8 b (off + poff_level);
        pwindow_kbps = get32 b (off + poff_window);
      }

let encode_pause p =
  let b = Bytes.make pause_size '\000' in
  encode_pause_at b ~off:0 p;
  b

let decode_pause b =
  if Bytes.length b <> pause_size then Error "PAUSE must be 11 bytes"
  else decode_pause_at b ~off:0

(* -- batched control-plane codec ------------------------------------------ *)

(* One contiguous buffer holding a heterogeneous run of control items, each
   framed as a 1-byte format code followed by the item's standard encoding
   (own checksum included, so a corrupted item is pinpointed rather than
   poisoning the whole batch). The format code is needed because the inner
   type byte alone cannot distinguish a 16-byte event from its 24-byte
   sequenced extension. Data packets are not batchable: their route field
   is bit-packed at dynamic offsets, outside what the U3 checker can prove
   for a running-offset writer. *)

type batch_item =
  | Item_broadcast of broadcast
  | Item_seq_broadcast of broadcast * int * int
  | Item_digest of digest
  | Item_nack of nack

let batch_code_broadcast = 1
let batch_code_seq_broadcast = 2
let batch_code_digest = 3
let batch_code_nack = 4

let item_code = function
  | Item_broadcast _ -> batch_code_broadcast
  | Item_seq_broadcast _ -> batch_code_seq_broadcast
  | Item_digest _ -> batch_code_digest
  | Item_nack _ -> batch_code_nack

let size_of_code c =
  if c = batch_code_broadcast then Some broadcast_size
  else if c = batch_code_seq_broadcast then Some seq_broadcast_size
  else if c = batch_code_digest then Some digest_size
  else if c = batch_code_nack then Some nack_size
  else None

let item_size it =
  match size_of_code (item_code it) with Some s -> 1 + s | None -> assert false

let batch_size items = List.fold_left (fun acc it -> acc + item_size it) 0 items

let encode_batch items =
  let b = Bytes.make (batch_size items) '\000' in
  let off = ref 0 in
  List.iter
    (fun it ->
      put8 b !off (item_code it);
      let body = !off + 1 in
      (match it with
      | Item_broadcast p -> encode_broadcast_at b ~off:body p
      | Item_seq_broadcast (p, flow, seq) ->
          encode_seq_broadcast_at b ~off:body p ~flow ~seq
      | Item_digest d -> encode_digest_at b ~off:body d
      | Item_nack n -> encode_nack_at b ~off:body n);
      off := !off + item_size it)
    items;
  b

(* The cursor is deliberately not named [off]: that name is U3's symbolic
   item base, and the batch walker's accesses are genuinely dynamic. *)
let decode_batch b =
  let n = Bytes.length b in
  let rec go pos acc =
    if pos = n then Ok (List.rev acc)
    else begin
      let code = get8 b pos in
      match size_of_code code with
      | None ->
          Error (Printf.sprintf "batch: unknown item code %d at offset %d" code pos)
      | Some size ->
          if pos + 1 + size > n then
            Error (Printf.sprintf "batch truncated mid-item at offset %d" pos)
          else begin
            let body = pos + 1 in
            let item =
              if code = batch_code_broadcast then
                Result.map (fun p -> Item_broadcast p) (decode_broadcast_at b ~off:body)
              else if code = batch_code_seq_broadcast then
                Result.map
                  (fun (p, flow, seq) -> Item_seq_broadcast (p, flow, seq))
                  (decode_seq_broadcast_at b ~off:body)
              else if code = batch_code_digest then
                Result.map (fun d -> Item_digest d) (decode_digest_at b ~off:body)
              else Result.map (fun k -> Item_nack k) (decode_nack_at b ~off:body)
            in
            match item with
            | Error e -> Error (Printf.sprintf "batch item at offset %d: %s" pos e)
            | Ok it -> go (pos + 1 + size) (it :: acc)
          end
    end
  in
  go 0 []

(* -- route selectors ----------------------------------------------------- *)

let route_selectors ctx path =
  let t = Routing.topo ctx in
  let hops = Array.length path - 1 in
  if hops > max_route_hops then invalid_arg "Wire.route_selectors: path too long";
  Array.init hops (fun i ->
      let u = path.(i) and v = path.(i + 1) in
      let out = Topology.out_links t u in
      if Array.length out > max_links_per_node then
        invalid_arg "Wire.route_selectors: node degree exceeds 8";
      let rec find j =
        if j >= Array.length out then
          invalid_arg "Wire.route_selectors: non-adjacent vertices"
        else begin
          let w, _ = out.(j) in
          if w = v then j else find (j + 1)
        end
      in
      find 0)

let apply_selector topo node sel =
  let out = Topology.out_links topo node in
  if sel >= Array.length out then invalid_arg "Wire.apply_selector: selector out of range";
  fst out.(sel)

let corrupt rng b =
  let b' = Bytes.copy b in
  let bit = Util.Rng.int rng (8 * Bytes.length b') in
  let byte = bit / 8 and off = bit mod 8 in
  Bytes.set_uint8 b' byte (Bytes.get_uint8 b' byte lxor (1 lsl off));
  b'
