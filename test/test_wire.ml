(* Tests for lib/wire: packet formats of Fig. 6, checksums, route
   selectors. *)

let tc name f = Alcotest.test_case name `Quick f

let sample_header =
  {
    Wire.flow = 0xDEADBEE;
    src = 17;
    dst = 391;
    seq = 123_456;
    plen = 1465;
    route = [| 0; 3; 5; 1; 2; 4; 0; 7 |];
    ridx = 2;
  }

let data_roundtrip () =
  let b = Wire.encode_data sample_header in
  Alcotest.(check int) "header size" Wire.data_header_size (Bytes.length b);
  match Wire.decode_data b with
  | Error e -> Alcotest.fail e
  | Ok h ->
      Alcotest.(check int) "flow" sample_header.Wire.flow h.Wire.flow;
      Alcotest.(check int) "src" sample_header.Wire.src h.Wire.src;
      Alcotest.(check int) "dst" sample_header.Wire.dst h.Wire.dst;
      Alcotest.(check int) "seq" sample_header.Wire.seq h.Wire.seq;
      Alcotest.(check int) "plen" sample_header.Wire.plen h.Wire.plen;
      Alcotest.(check int) "ridx" sample_header.Wire.ridx h.Wire.ridx;
      Alcotest.(check (array int)) "route" sample_header.Wire.route h.Wire.route

let data_max_route () =
  let h = { sample_header with Wire.route = Array.init 42 (fun i -> i mod 8); ridx = 0 } in
  match Wire.decode_data (Wire.encode_data h) with
  | Ok h' -> Alcotest.(check (array int)) "42-hop route" h.Wire.route h'.Wire.route
  | Error e -> Alcotest.fail e

let data_rejects_oversized_route () =
  Alcotest.check_raises "route too long"
    (Invalid_argument "Wire.encode_data: route too long") (fun () ->
      ignore (Wire.encode_data { sample_header with Wire.route = Array.make 43 0 }))

let data_rejects_wide_fields () =
  Alcotest.check_raises "selector too wide"
    (Invalid_argument "Wire: field route hop = 8 exceeds 3 bits") (fun () ->
      ignore (Wire.encode_data { sample_header with Wire.route = [| 8 |]; ridx = 0 }))

let data_detects_corruption () =
  let rng = Util.Rng.create 3 in
  let b = Wire.encode_data sample_header in
  let detected = ref 0 in
  let n = 200 in
  for _ = 1 to n do
    match Wire.decode_data (Wire.corrupt rng b) with
    | Error _ -> incr detected
    | Ok h' -> if h' <> sample_header then () else incr detected
    (* a flip that decodes to the identical header would be a real miss *)
  done;
  Alcotest.(check int) "every single-bit flip detected or harmless" n !detected

let data_short_buffer () =
  match Wire.decode_data (Bytes.create 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded short buffer"

let sample_bcast =
  {
    Wire.event = Wire.Flow_start;
    bsrc = 12;
    bdst = 511;
    weight = 3;
    priority = 1;
    demand_kbps = 1_000_000;
    tree = 2;
    rp = Routing.Vlb;
  }

let broadcast_roundtrip () =
  let b = Wire.encode_broadcast sample_bcast in
  Alcotest.(check int) "16 bytes" Wire.broadcast_size (Bytes.length b);
  match Wire.decode_broadcast b with
  | Error e -> Alcotest.fail e
  | Ok p -> Alcotest.(check bool) "roundtrip" true (p = sample_bcast)

let broadcast_all_events () =
  List.iter
    (fun event ->
      let p = { sample_bcast with Wire.event } in
      match Wire.decode_broadcast (Wire.encode_broadcast p) with
      | Ok p' -> Alcotest.(check bool) "event preserved" true (p'.Wire.event = event)
      | Error e -> Alcotest.fail e)
    [ Wire.Flow_start; Wire.Flow_finish; Wire.Demand_update; Wire.Route_change ]

let broadcast_detects_corruption () =
  let rng = Util.Rng.create 5 in
  let b = Wire.encode_broadcast sample_bcast in
  for _ = 1 to 200 do
    match Wire.decode_broadcast (Wire.corrupt rng b) with
    | Error _ -> ()
    | Ok p -> Alcotest.(check bool) "if decoded, must equal original" true (p = sample_bcast)
  done

let broadcast_max_demand () =
  (* 4 Tbps in Kbps fits 32 bits. *)
  let p = { sample_bcast with Wire.demand_kbps = 4_000_000_000 } in
  match Wire.decode_broadcast (Wire.encode_broadcast p) with
  | Ok p' -> Alcotest.(check int) "4 Tbps demand" 4_000_000_000 p'.Wire.demand_kbps
  | Error e -> Alcotest.fail e

let broadcast_wrong_size () =
  match Wire.decode_broadcast (Bytes.create 15) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded 15-byte broadcast"

let checksum_zero_buffer () =
  let b = Bytes.make 8 '\000' in
  Alcotest.(check int) "ones-complement of 0" 0xFFFF (Wire.checksum b)

let checksum_odd_length () =
  let b = Bytes.of_string "abc" in
  let c1 = Wire.checksum b in
  Alcotest.(check bool) "in 16-bit range" true (c1 >= 0 && c1 <= 0xFFFF)

let route_selectors_roundtrip () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create 7 in
  for _ = 1 to 50 do
    let src = Util.Rng.int rng 64 and dst = Util.Rng.int rng 64 in
    if src <> dst then begin
      let path = Routing.sample_path ctx rng Routing.Rps ~src ~dst in
      let sels = Wire.route_selectors ctx path in
      (* Walking the selectors reproduces the path. *)
      let v = ref src in
      Array.iteri
        (fun i s ->
          v := Wire.apply_selector topo !v s;
          Alcotest.(check int) "selector walks the path" path.(i + 1) !v)
        sels
    end
  done

let route_selectors_reject_high_degree () =
  (* A k=6 flattened butterfly has degree 10 — beyond the 3-bit selector
     budget of the Fig. 6 header. *)
  let topo = Topology.flattened_butterfly 6 in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create 11 in
  let path = Routing.sample_path ctx rng Routing.Rps ~src:0 ~dst:35 in
  Alcotest.check_raises "degree over 8"
    (Invalid_argument "Wire.route_selectors: node degree exceeds 8") (fun () ->
      ignore (Wire.route_selectors ctx path))

let qcheck_data_roundtrip =
  QCheck.Test.make ~name:"data header roundtrip" ~count:500
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFFFF)
        (pair (int_bound 1_000_000) (int_bound 1465))
        (list_of_size Gen.(0 -- 42) (int_bound 7)))
    (fun (src, dst, (seq, plen), route) ->
      let h = { Wire.flow = src lxor (dst * 7); src; dst; seq; plen; route = Array.of_list route; ridx = 0 } in
      match Wire.decode_data (Wire.encode_data h) with Ok h' -> h' = h | Error _ -> false)

let qcheck_broadcast_roundtrip =
  QCheck.Test.make ~name:"broadcast roundtrip" ~count:500
    QCheck.(
      quad (int_bound 0xFFFF) (int_bound 0xFFFF) (pair (int_bound 255) (int_bound 255))
        (pair (int_bound 0xFFFFFFF) (int_bound 3)))
    (fun (bsrc, bdst, (weight, priority), (demand_kbps, rpi)) ->
      let rp = Option.get (Routing.protocol_of_int rpi) in
      let p = { Wire.event = Wire.Flow_start; bsrc; bdst; weight; priority; demand_kbps; tree = 1; rp } in
      match Wire.decode_broadcast (Wire.encode_broadcast p) with
      | Ok p' -> p' = p
      | Error _ -> false)

let qcheck_join_roundtrip =
  QCheck.Test.make ~name:"JOIN roundtrip" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0x3FFFFFFF))
    (fun (jnode, jinc) ->
      match Wire.decode_join (Wire.encode_join { Wire.jnode; jinc }) with
      | Ok j -> j = { Wire.jnode; jinc }
      | Error _ -> false)

let qcheck_snapshot_req_roundtrip =
  QCheck.Test.make ~name:"SNAPSHOT-REQ roundtrip" ~count:500
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0x3FFFFFFF))
    (fun (sroot, srequester, sinc) ->
      let s = { Wire.sroot; srequester; sinc } in
      match Wire.decode_snapshot_req (Wire.encode_snapshot_req s) with
      | Ok s' -> s' = s
      | Error _ -> false)

let join_wrong_size_rejected () =
  (match Wire.decode_join (Bytes.make Wire.snapshot_req_size '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "12-byte buffer accepted as JOIN");
  match Wire.decode_snapshot_req (Bytes.make Wire.join_size '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "10-byte buffer accepted as SNAPSHOT-REQ"

(* -- deterministic fuzz over every packet type ----------------------------- *)

(* One seeded generator drives random instances of every control format —
   all four broadcast events in both the 16-byte and the sequenced 24-byte
   layout, digests and NACKs — through an encode/decode round trip, plus a
   bit-flip corruption check per format. *)
let fuzz_all_packet_types () =
  let rng = Util.Rng.create 4099 in
  let events = [| Wire.Flow_start; Wire.Flow_finish; Wire.Demand_update; Wire.Route_change |] in
  let int64_of rng =
    Int64.logxor
      (Int64.of_int (Util.Rng.int rng 0x3FFFFFFF))
      (Int64.shift_left (Int64.of_int (Util.Rng.int rng 0x3FFFFFFF)) 34)
  in
  for i = 0 to 499 do
    let p =
      {
        Wire.event = events.(i mod 4);
        bsrc = Util.Rng.int rng 0x10000;
        bdst = Util.Rng.int rng 0x10000;
        weight = Util.Rng.int rng 256;
        priority = Util.Rng.int rng 256;
        demand_kbps = Util.Rng.int rng 0x40000000;
        tree = Util.Rng.int rng 256;
        rp = Option.get (Routing.protocol_of_int (Util.Rng.int rng 4));
      }
    in
    (match Wire.decode_broadcast (Wire.encode_broadcast p) with
    | Ok p' -> if p' <> p then Alcotest.failf "broadcast roundtrip broke at %d" i
    | Error e -> Alcotest.failf "broadcast decode failed at %d: %s" i e);
    let flow = Util.Rng.int rng 0x40000000 and seq = Util.Rng.int rng 0x40000000 in
    let sb = Wire.encode_seq_broadcast p ~flow ~seq in
    (match Wire.decode_seq_broadcast sb with
    | Ok (p', flow', seq') ->
        if p' <> p || flow' <> flow || seq' <> seq then
          Alcotest.failf "seq broadcast roundtrip broke at %d" i
    | Error e -> Alcotest.failf "seq broadcast decode failed at %d: %s" i e);
    (match Wire.decode_seq_broadcast (Wire.corrupt rng sb) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "seq broadcast corruption undetected at %d" i);
    let d =
      {
        Wire.dsrc = Util.Rng.int rng 0x10000;
        dtree = Util.Rng.int rng 256;
        epoch = Util.Rng.int rng 0x40000000;
        last_seq = Util.Rng.int rng 0x40000000;
        state_hash = int64_of rng;
      }
    in
    let db = Wire.encode_digest d in
    (match Wire.decode_digest db with
    | Ok d' -> if d' <> d then Alcotest.failf "digest roundtrip broke at %d" i
    | Error e -> Alcotest.failf "digest decode failed at %d: %s" i e);
    (match Wire.decode_digest (Wire.corrupt rng db) with
    | Error _ -> ()
    | Ok d' -> if d' <> d then () else Alcotest.failf "digest corruption undetected at %d" i);
    let nfrom = Util.Rng.int rng 0x3FFFFFFF in
    let n =
      {
        Wire.nsrc = Util.Rng.int rng 0x10000;
        nrequester = Util.Rng.int rng 0x10000;
        ntree = Util.Rng.int rng 256;
        nfrom;
        nto = nfrom + Util.Rng.int rng 1024;
      }
    in
    let nb = Wire.encode_nack n in
    (match Wire.decode_nack nb with
    | Ok n' -> if n' <> n then Alcotest.failf "NACK roundtrip broke at %d" i
    | Error e -> Alcotest.failf "NACK decode failed at %d: %s" i e);
    (match Wire.decode_nack (Wire.corrupt rng nb) with
    | Error _ -> ()
    | Ok n' -> if n' <> n then () else Alcotest.failf "NACK corruption undetected at %d" i);
    let j =
      { Wire.jnode = Util.Rng.int rng 0x10000; jinc = Util.Rng.int rng 0x40000000 }
    in
    let jb = Wire.encode_join j in
    (match Wire.decode_join jb with
    | Ok j' -> if j' <> j then Alcotest.failf "JOIN roundtrip broke at %d" i
    | Error e -> Alcotest.failf "JOIN decode failed at %d: %s" i e);
    (match Wire.decode_join (Wire.corrupt rng jb) with
    | Error _ -> ()
    | Ok j' -> if j' <> j then () else Alcotest.failf "JOIN corruption undetected at %d" i);
    let s =
      {
        Wire.sroot = Util.Rng.int rng 0x10000;
        srequester = Util.Rng.int rng 0x10000;
        sinc = Util.Rng.int rng 0x40000000;
      }
    in
    let sb = Wire.encode_snapshot_req s in
    (match Wire.decode_snapshot_req sb with
    | Ok s' -> if s' <> s then Alcotest.failf "SNAPSHOT-REQ roundtrip broke at %d" i
    | Error e -> Alcotest.failf "SNAPSHOT-REQ decode failed at %d: %s" i e);
    match Wire.decode_snapshot_req (Wire.corrupt rng sb) with
    | Error _ -> ()
    | Ok s' ->
        if s' <> s then ()
        else Alcotest.failf "SNAPSHOT-REQ corruption undetected at %d" i
  done

let nack_rejects_empty_range () =
  Alcotest.check_raises "to < from"
    (Invalid_argument "Wire.encode_nack: empty range") (fun () ->
      ignore
        (Wire.encode_nack
           { Wire.nsrc = 1; nrequester = 2; ntree = 0; nfrom = 5; nto = 4 }))

let seq_broadcast_wrong_size_rejected () =
  (match Wire.decode_seq_broadcast (Bytes.make Wire.broadcast_size '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "16-byte buffer accepted as sequenced broadcast");
  match Wire.decode_digest (Bytes.make Wire.nack_size '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "16-byte buffer accepted as digest"

(* -- batched control-plane codec ------------------------------------------ *)

let batch_pkt =
  {
    Wire.event = Wire.Demand_update;
    bsrc = 7;
    bdst = 12;
    weight = 3;
    priority = 1;
    demand_kbps = 250_000;
    tree = 2;
    rp = Routing.Rps;
  }

let batch_items =
  [
    Wire.Item_broadcast batch_pkt;
    Wire.Item_seq_broadcast (batch_pkt, 41, 9);
    Wire.Item_digest
      { Wire.dsrc = 3; dtree = 2; epoch = 5; last_seq = 9; state_hash = 0xBEEFL };
    Wire.Item_nack { Wire.nsrc = 3; nrequester = 8; ntree = 2; nfrom = 4; nto = 7 };
  ]

let batch_heterogeneous_roundtrip () =
  let b = Wire.encode_batch batch_items in
  Alcotest.(check int)
    "size" (Wire.batch_size batch_items) (Bytes.length b);
  match Wire.decode_batch b with
  | Ok got -> if got <> batch_items then Alcotest.fail "batch roundtrip broke"
  | Error e -> Alcotest.failf "batch decode failed: %s" e

let batch_empty () =
  let b = Wire.encode_batch [] in
  Alcotest.(check int) "empty encodes to zero bytes" 0 (Bytes.length b);
  match Wire.decode_batch b with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty batch decoded items"
  | Error e -> Alcotest.failf "empty batch decode failed: %s" e

let batch_truncation_detected () =
  let b = Wire.encode_batch batch_items in
  match Wire.decode_batch (Bytes.sub b 0 (Bytes.length b - 1)) with
  | Error e ->
      if not (String.length e >= 15 && String.sub e 0 15 = "batch truncated") then
        Alcotest.failf "unexpected truncation error: %s" e
  | Ok _ -> Alcotest.fail "truncated batch accepted"

let batch_unknown_code_rejected () =
  let b = Wire.encode_batch batch_items in
  Bytes.set b 0 '\255';
  match Wire.decode_batch b with
  | Error e ->
      if not (String.length e >= 24 && String.sub e 0 24 = "batch: unknown item code") then
        Alcotest.failf "unexpected unknown-code error: %s" e
  | Ok _ -> Alcotest.fail "unknown item code accepted"

let batch_corruption_located () =
  (* Flip a byte inside the second item's body; the error must name the
     second item's offset, one broadcast frame in. *)
  let b = Wire.encode_batch batch_items in
  let second = 1 + Wire.broadcast_size in
  Bytes.set b (second + 3) (Char.chr (Char.code (Bytes.get b (second + 3)) lxor 0x40));
  match Wire.decode_batch b with
  | Error e ->
      let want = Printf.sprintf "batch item at offset %d:" second in
      let n = String.length want in
      if not (String.length e >= n && String.sub e 0 n = want) then
        Alcotest.failf "corruption not located: %s" e
  | Ok _ -> Alcotest.fail "corrupted batch item accepted"

(* -- in-place reading ------------------------------------------------------- *)

let verdict_of = function Ok _ -> "ok" | Error e -> e

(* The in-place check gives the decoder's verdict, message for message,
   for a random event of either format at any offset of a larger buffer
   (odd ones too: the checksum words are relative to the item) and for
   every single-bit flip of it; on a valid item the readers return the
   decoded fields. Neither the check nor the decoder writes to the
   buffer. *)
let in_place_check_matches_decoder () =
  let rng = Util.Rng.create 8191 in
  let events = [| Wire.Flow_start; Wire.Flow_finish; Wire.Demand_update; Wire.Route_change |] in
  for i = 0 to 39 do
    let p =
      {
        Wire.event = events.(i mod 4);
        bsrc = Util.Rng.int rng 0x10000;
        bdst = Util.Rng.int rng 0x10000;
        weight = Util.Rng.int rng 256;
        priority = Util.Rng.int rng 256;
        demand_kbps = Util.Rng.int rng 0x40000000;
        tree = Util.Rng.int rng 256;
        rp = Option.get (Routing.protocol_of_int (Util.Rng.int rng 4));
      }
    in
    let flow = Util.Rng.int rng 0x40000000 and seq = Util.Rng.int rng 0x40000000 in
    let off = Util.Rng.int rng 9 in
    let place item =
      let b = Bytes.make (off + Bytes.length item + 3) '\255' in
      Bytes.blit item 0 b off (Bytes.length item);
      b
    in
    let item = Wire.encode_seq_broadcast p ~flow ~seq and item16 = Wire.encode_broadcast p in
    let big = place item and big16 = place item16 in
    for bit = -1 to (8 * Wire.seq_broadcast_size) - 1 do
      let flip b base =
        let b = Bytes.copy b in
        if bit >= 0 && bit < 8 * (Bytes.length b - base) then
          Bytes.set_uint8 b (base + (bit / 8))
            (Bytes.get_uint8 b (base + (bit / 8)) lxor (1 lsl (bit mod 8)));
        b
      in
      let b = flip big off and b16 = flip big16 off in
      let held = Bytes.copy b and held16 = Bytes.copy b16 in
      let decoded = Wire.decode_seq_broadcast (Bytes.sub b off Wire.seq_broadcast_size) in
      Alcotest.(check string)
        (Printf.sprintf "event %d bit %d: sequenced verdict" i bit)
        (verdict_of decoded)
        (verdict_of (Wire.check_seq_broadcast_at b ~off));
      Alcotest.(check string)
        (Printf.sprintf "event %d bit %d: 16-byte verdict" i bit)
        (verdict_of (Wire.decode_broadcast (Bytes.sub b16 off Wire.broadcast_size)))
        (verdict_of (Wire.check_broadcast_at b16 ~off));
      (match decoded with
      | Ok (q, fl, sq) ->
          Alcotest.(check bool) "readers = decoder" true
            (Wire.event_at b ~off = q.Wire.event
            && Wire.tree_at b ~off = q.Wire.tree
            && Wire.flow_at b ~off = fl
            && Wire.seq_at b ~off = sq
            && Wire.same_broadcast_at b ~off q)
      | Error _ -> ());
      if not (Bytes.equal b held && Bytes.equal b16 held16) then
        Alcotest.failf "event %d bit %d: a check wrote to the buffer" i bit
    done;
    Alcotest.(check bool) "intact item reads back" true
      (Wire.same_broadcast_at big ~off p && Wire.same_broadcast_at big16 ~off p);
    Alcotest.(check string) "one byte short" "short sequenced broadcast"
      (verdict_of (Wire.check_seq_broadcast_at big ~off:(Bytes.length big - 23)));
    Alcotest.(check string) "negative offset" "short broadcast packet"
      (verdict_of (Wire.check_broadcast_at big16 ~off:(-1)))
  done

(* Every decoder verifies its checksum without writing: a valid and a
   corrupted buffer of each format, the data header's odd-offset checksum
   and the PAUSE's among them, read back unchanged. *)
let decoders_leave_the_buffer () =
  let rng = Util.Rng.create 31 in
  let untouched name b decode =
    List.iter
      (fun b ->
        let held = Bytes.copy b in
        ignore (decode b);
        if not (Bytes.equal b held) then Alcotest.failf "%s: decoding wrote to the buffer" name)
      [ b; Wire.corrupt rng b ]
  in
  untouched "data" (Wire.encode_data sample_header) Wire.decode_data;
  untouched "broadcast" (Wire.encode_broadcast sample_bcast) Wire.decode_broadcast;
  untouched "sequenced" (Wire.encode_seq_broadcast sample_bcast ~flow:7 ~seq:9)
    Wire.decode_seq_broadcast;
  untouched "PAUSE"
    (Wire.encode_pause { Wire.pnode = 3; pclass = 1; plevel = 2; pwindow_kbps = 5000 })
    Wire.decode_pause;
  untouched "batch"
    (Wire.encode_batch batch_items)
    Wire.decode_batch

let suites =
  [
    ( "wire",
      [
        tc "data header roundtrip" data_roundtrip;
        tc "42-hop route fits" data_max_route;
        tc "oversized route rejected" data_rejects_oversized_route;
        tc "wide selector rejected" data_rejects_wide_fields;
        tc "corruption detected" data_detects_corruption;
        tc "short buffer rejected" data_short_buffer;
        tc "broadcast roundtrip" broadcast_roundtrip;
        tc "all broadcast events" broadcast_all_events;
        tc "broadcast corruption detected" broadcast_detects_corruption;
        tc "4 Tbps demand encodes" broadcast_max_demand;
        tc "wrong-size broadcast rejected" broadcast_wrong_size;
        tc "checksum of zeros" checksum_zero_buffer;
        tc "checksum odd length" checksum_odd_length;
        tc "route selectors walk the path" route_selectors_roundtrip;
        tc "route selectors reject degree > 8" route_selectors_reject_high_degree;
        tc "fuzz all packet types" fuzz_all_packet_types;
        tc "NACK rejects empty range" nack_rejects_empty_range;
        tc "wrong-size reliability packets rejected" seq_broadcast_wrong_size_rejected;
        tc "wrong-size rejoin packets rejected" join_wrong_size_rejected;
        tc "batch heterogeneous roundtrip" batch_heterogeneous_roundtrip;
        tc "batch empty" batch_empty;
        tc "batch truncation detected" batch_truncation_detected;
        tc "batch unknown code rejected" batch_unknown_code_rejected;
        tc "batch corruption located" batch_corruption_located;
        tc "in-place check matches the decoder" in_place_check_matches_decoder;
        tc "decoders leave the buffer as it was" decoders_leave_the_buffer;
        QCheck_alcotest.to_alcotest qcheck_data_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_broadcast_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_join_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_snapshot_req_roundtrip;
      ] );
  ]
