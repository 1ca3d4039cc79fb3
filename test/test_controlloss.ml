(* The lossy control plane: reliable-broadcast sequencing (Rbcast) and
   receive windows (Replicas), peer view replicas (View), the Stack repair machinery (digests, NACK replay,
   watchdog sync, loss-scaled headroom), and the packet-level simulation
   under chaos injection — loss, reordering and duplication of control
   packets must never leave the rack with diverged traffic-matrix views. *)

let tc name f = Alcotest.test_case name `Quick f

(* -- Rbcast sequencing and Replicas windows -------------------------------- *)

(* Receive one sequenced event at a window; the delivered run comes back
   as the payload names, event [2 * i] standing for [names.(i)]. *)
let receive_named r w names ~seq i =
  let run = ref [] in
  let v = Replicas.receive r w ~seq (2 * i) ~deliver:(fun _ ev -> run := names.(ev / 2) :: !run) in
  (v, List.rev !run)

(* A NACK for [from_seq .. to_seq]: the replayed [(seq, payload)]s in
   order, and whether the origin flagged a sequence it cannot replay. *)
let replay_all o ~tree ~from_seq ~to_seq =
  let got = ref [] in
  let lost = Rbcast.replay_range o ~tree ~from_seq ~to_seq (fun seq p -> got := (seq, p) :: !got) in
  (List.rev !got, lost)

let rbcast_window_orders_and_dedups () =
  let o = Rbcast.origin ~trees:2 () in
  let s0 = Rbcast.send o ~tree:0 "a" in
  let s1 = Rbcast.send o ~tree:0 "b" in
  let s2 = Rbcast.send o ~tree:0 "c" in
  Alcotest.(check (list int)) "per-tree seqs are dense" [ 0; 1; 2 ] [ s0; s1; s2 ];
  Alcotest.(check int) "other tree has its own space" 0 (Rbcast.send o ~tree:1 "x");
  let r = Replicas.create ~replicas:1 ~origins:1 ~trees:2 in
  let w = Replicas.window r ~replica:0 ~origin:0 ~tree:0 in
  let receive = receive_named r w [| "a"; "b"; "c" |] in
  (match receive ~seq:1 1 with
  | Replicas.Buffered, _ -> ()
  | (Replicas.Delivered | Replicas.Duplicate), _ -> Alcotest.fail "seq 1 before 0 must buffer");
  Alcotest.(check (list (pair int int))) "gap is visible" [ (0, 0) ] (Replicas.missing r w);
  (match receive ~seq:0 0 with
  | Replicas.Delivered, ps -> Alcotest.(check (list string)) "in order" [ "a"; "b" ] ps
  | (Replicas.Buffered | Replicas.Duplicate), _ -> Alcotest.fail "seq 0 must release the window");
  (match receive ~seq:0 0 with
  | Replicas.Duplicate, _ -> ()
  | (Replicas.Delivered | Replicas.Buffered), _ -> Alcotest.fail "replayed seq must dedup");
  Alcotest.(check int) "duplicate counted" 1 (Replicas.duplicates r);
  (match receive ~seq:2 2 with
  | Replicas.Delivered, ps -> Alcotest.(check (list string)) "tail" [ "c" ] ps
  | (Replicas.Buffered | Replicas.Duplicate), _ -> Alcotest.fail "seq 2 must deliver");
  Alcotest.(check (pair (list (pair int string)) bool)) "origin replays" ([ (1, "b") ], false)
    (replay_all o ~tree:0 ~from_seq:1 ~to_seq:1)

(* The replay ring against the Hashtbl log it replaced: [seq] logged,
   [seq - log_cap] evicted, on every send; a restart empties it. A
   one-sequence NACK replays exactly the logged payload, and flags exactly
   the sequences the log does not hold. *)
let qcheck_replay_ring_matches_log =
  let caps = [| 1; 5; 16; 100; 65536 |] in
  QCheck.Test.make ~name:"replay ring = the Hashtbl log, last log_cap seqs exactly" ~count:60
    QCheck.(pair (int_bound 4) (int_bound 1_000_000))
    (fun (ci, seed) ->
      let cap = caps.(ci) and rng = Util.Rng.create seed in
      let o = Rbcast.origin ~log_cap:cap ~trees:2 () in
      let logs = Array.init 2 (fun _ -> Hashtbl.create 16) and next = Array.make 2 0 in
      let payload = ref 0 in
      let send tree =
        incr payload;
        let seq = Rbcast.send o ~tree !payload in
        Hashtbl.replace logs.(tree) seq !payload;
        if seq >= cap then Hashtbl.remove logs.(tree) (seq - cap);
        next.(tree) <- seq + 1
      in
      let burst () =
        for _ = 1 to Util.Rng.int rng ((2 * min cap 70_000) + 40) do
          send (Util.Rng.int rng 2)
        done
      in
      burst ();
      if Util.Rng.bool rng then begin
        ignore (Rbcast.restart o);
        Array.iter Hashtbl.reset logs;
        Array.fill next 0 2 0;
        burst ()
      end;
      List.for_all
        (fun tree ->
          let kept = ref 0 and ok = ref true in
          for seq = -2 to next.(tree) + 2 do
            let got =
              match replay_all o ~tree ~from_seq:seq ~to_seq:seq with
              | [ (s, p) ], false when s = seq -> Some p
              | [], true -> None
              | _ -> ok := false; None
            in
            if got <> Hashtbl.find_opt logs.(tree) seq then ok := false;
            if got <> None then begin
              incr kept;
              if seq < next.(tree) - cap then ok := false
            end
          done;
          !ok && !kept = min cap next.(tree))
        [ 0; 1 ])

(* -- View: replica repair from the sequenced stream ------------------------ *)

let mk_stack () =
  let topo = Topology.torus [| 2; 2; 2 |] in
  (R2c2.Stack.create ~seed:5 topo, topo)

let feed view bytes =
  match R2c2.View.apply view bytes with
  | R2c2.View.Malformed e -> Alcotest.fail ("view rejected stack bytes: " ^ e)
  | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered -> ()

(* Drop a third of the broadcasts on the way to the replica, then let the
   digest + NACK + replay loop repair it, answering every NACKed gap with
   one replay_range batch: afterwards the replica's hash and flow set must
   equal the authority's, even when the drop hit the last packet of the
   stream (which no later packet could reveal), and each replayed event is
   charged and counted once. *)
let view_batched_repair_heals_all_loss () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let n = ref 0 in
  R2c2.Stack.on_broadcast_seq st (fun b ->
      incr n;
      if !n mod 3 <> 0 then feed view b);
  let ids = ref [] in
  for i = 0 to 5 do
    ids := R2c2.Stack.open_flow st ~src:(i mod 8) ~dst:((i + 3) mod 8) :: !ids
  done;
  (match !ids with
  | last :: _ -> R2c2.Stack.close_flow st last
  | [] -> assert false);
  Alcotest.(check bool) "loss actually diverged the replica" true
    (R2c2.View.matrix_hash view <> R2c2.Stack.matrix_hash st);
  let rounds = ref 0 in
  let rec heal () =
    incr rounds;
    if !rounds > 10 then Alcotest.fail "view did not heal within 10 digest rounds";
    let again = ref false in
    List.iter
      (fun d ->
        match R2c2.View.observe_digest view d with
        | R2c2.View.Gaps ranges ->
            again := true;
            List.iter
              (fun (lo, hi) ->
                let before = R2c2.Stack.event_retransmits st in
                match
                  R2c2.Stack.replay_range st ~tree:d.Wire.dtree ~from_seq:lo ~to_seq:hi
                with
                | None -> Alcotest.fail "replay log evicted too early"
                | Some batch -> (
                    Alcotest.(check int) "one retransmit per ranged event"
                      (hi - lo + 1)
                      (R2c2.Stack.event_retransmits st - before);
                    match R2c2.View.apply_batch view batch with
                    | Error e -> Alcotest.fail ("repair batch rejected: " ^ e)
                    | Ok verdicts ->
                        Alcotest.(check int) "one verdict per ranged event"
                          (hi - lo + 1) (List.length verdicts);
                        List.iter
                          (function
                            | R2c2.View.Malformed e ->
                                Alcotest.fail ("malformed repair item: " ^ e)
                            | R2c2.View.Applied _ | R2c2.View.Duplicate
                            | R2c2.View.Buffered ->
                                ())
                          verdicts))
              ranges
        | R2c2.View.Diverged -> Alcotest.fail "caught-up replica cannot hash differently"
        | R2c2.View.Synced -> ())
      (R2c2.Stack.emit_digests st);
    if !again then heal ()
  in
  heal ();
  Alcotest.(check bool) "hashes agree after batched repair" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st);
  Alcotest.(check (list int)) "flow sets agree"
    (List.map (fun (id, _) -> id) (R2c2.Stack.allocations st))
    (R2c2.View.flow_ids view);
  Alcotest.check_raises "empty range raises"
    (Invalid_argument "Rbcast.replay_range: empty range") (fun () ->
      ignore (R2c2.Stack.replay_range st ~tree:0 ~from_seq:5 ~to_seq:4))

let view_dedups_duplicates () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  (* Deliver everything twice: the replica must apply each event once. *)
  R2c2.Stack.on_broadcast_seq st (fun b ->
      feed view b;
      match R2c2.View.apply view b with
      | R2c2.View.Duplicate -> ()
      | R2c2.View.Applied _ | R2c2.View.Buffered | R2c2.View.Malformed _ ->
          Alcotest.fail "second copy must be absorbed as a duplicate");
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:1 in
  let _b = R2c2.Stack.open_flow st ~src:2 ~dst:3 in
  R2c2.Stack.close_flow st a;
  Alcotest.(check int) "three events applied once each" 3 (R2c2.View.applied view);
  Alcotest.(check int) "three duplicates absorbed" 3 (R2c2.View.duplicates view);
  Alcotest.(check bool) "views agree" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* A stack's sequenced events as they leave it, newest first. *)
let capture st =
  let wires = ref [] in
  R2c2.Stack.on_broadcast_seq st (fun b -> wires := b :: !wires);
  fun () -> List.hd !wires

(* The view checks a sequenced event where it lies: every single-bit flip
   of a valid event is refused, leaves the buffer as it was and changes
   nothing the view holds; the intact event then applies. *)
let view_refuses_every_bit_flip () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let last = capture st in
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:1);
  feed view (last ());
  ignore (R2c2.Stack.open_flow st ~src:2 ~dst:3);
  let wire = last () in
  let state () =
    ( R2c2.View.matrix_hash view,
      R2c2.View.applied view,
      List.init trees (fun tree -> R2c2.View.next_expected view ~tree) )
  in
  let held = state () in
  for bit = 0 to (8 * Wire.seq_broadcast_size) - 1 do
    let b = Bytes.copy wire in
    Bytes.set_uint8 b (bit / 8) (Bytes.get_uint8 b (bit / 8) lxor (1 lsl (bit mod 8)));
    let sent = Bytes.copy b in
    (match R2c2.View.apply view b with
    | R2c2.View.Malformed _ -> ()
    | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered ->
        Alcotest.failf "bit %d: a flipped event was accepted" bit);
    if not (Bytes.equal b sent) then Alcotest.failf "bit %d: the check wrote to the buffer" bit;
    if state () <> held then Alcotest.failf "bit %d: a refused event changed the view" bit
  done;
  match R2c2.View.apply view wire with
  | R2c2.View.Applied 1 -> ()
  | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered | R2c2.View.Malformed _ ->
      Alcotest.fail "the intact event applies"

(* Each way a sequenced event can be refused keeps its message, which is
   the decoder's; where two faults meet, the decoder's order decides. *)
let view_keeps_error_messages () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let last = capture st in
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:1);
  let wire = last () in
  (* Rewrite bytes and reseal: the checksum (offset 22) passes again. *)
  let sealed edits =
    let b = Bytes.copy wire in
    List.iter (fun (off, v) -> Bytes.set_uint8 b off v) edits;
    Bytes.set_uint16_be b 22 0;
    Bytes.set_uint16_be b 22 (Wire.checksum b);
    b
  in
  let flipped = Bytes.copy wire in
  Bytes.set_uint8 flipped 5 (Bytes.get_uint8 flipped 5 lxor 1);
  let cases =
    [
      ("short", Bytes.sub wire 0 23, "sequenced broadcast must be 24 bytes");
      ("checksum", flipped, "sequenced broadcast checksum mismatch");
      ("type", sealed [ (0, 9) ], "unknown broadcast type");
      ("protocol", sealed [ (12, 7) ], "unknown routing protocol");
      ("type and protocol", sealed [ (0, 0); (12, 4) ], "unknown broadcast type");
    ]
  in
  List.iter
    (fun (name, b, msg) ->
      (match Wire.decode_seq_broadcast b with
      | Error e -> Alcotest.(check string) (name ^ ": the decoder's message") msg e
      | Ok _ -> Alcotest.failf "%s: the decoder accepts it" name);
      match R2c2.View.apply view b with
      | R2c2.View.Malformed e -> Alcotest.(check string) (name ^ ": the view's message") msg e
      | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered ->
          Alcotest.failf "%s: the view accepts it" name)
    cases;
  match R2c2.View.apply view (sealed [ (11, trees) ]) with
  | R2c2.View.Malformed e -> Alcotest.(check string) "tree" "tree id out of range" e
  | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered ->
      Alcotest.fail "tree: the view accepts it"

(* An in-order event of a flow the view already holds is an array write
   and one preallocated verdict: no minor word. Counted as the replica
   table's own allocation test counts. *)
let view_in_order_event_allocates_nothing () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let last = capture st in
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:1 in
  feed view (last ());
  let b = R2c2.Stack.open_flow st ~src:2 ~dst:3 in
  feed view (last ());
  R2c2.Stack.set_demand st a ~gbps:(Some (Util.Units.gbps 5.0));
  let demand = last () in
  R2c2.Stack.close_flow st b;
  let finish = last () in
  let before = Gc.minor_words () in
  let v1 = R2c2.View.apply view demand in
  let v2 = R2c2.View.apply view finish in
  let words = Gc.minor_words () -. before in
  List.iter
    (function
      | R2c2.View.Applied 1 -> ()
      | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered | R2c2.View.Malformed _ ->
          Alcotest.fail "each event applies in order")
    [ v1; v2 ];
  Alcotest.(check (float 0.0)) "minor words of a demand update and a finish" 0.0 words;
  Alcotest.(check bool) "views agree" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* A digest delayed past newer events on its tree hashes a state the
   replica has already left behind: that is not divergence, and answering
   [Diverged] would cost a needless full sync. *)
let view_stale_digest_is_not_divergence () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  R2c2.Stack.on_broadcast_seq st (feed view);
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:3);
  let kept = R2c2.Stack.emit_digests st in
  ignore (R2c2.Stack.open_flow st ~src:1 ~dst:4);
  ignore (R2c2.Stack.open_flow st ~src:2 ~dst:5);
  let d =
    match kept with
    | [ d ] -> d
    | _ -> Alcotest.fail "one event rode one tree"
  in
  Alcotest.(check int) "kept digest covers the first event only" 0 d.Wire.last_seq;
  Alcotest.(check int) "replica moved past it" 2
    (R2c2.View.next_expected view ~tree:d.Wire.dtree);
  match R2c2.View.observe_digest view d with
  | R2c2.View.Synced -> ()
  | R2c2.View.Diverged -> Alcotest.fail "stale digest read as divergence"
  | R2c2.View.Gaps _ -> Alcotest.fail "no sequence is missing"

(* A caught-up replica whose flow set is wrong — positions right, content
   not — is genuine divergence; a full sync clears it. *)
let view_caught_up_wrong_set_diverges () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  R2c2.Stack.on_broadcast_seq st (feed view);
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:3);
  ignore (R2c2.Stack.open_flow st ~src:1 ~dst:4);
  R2c2.View.sync view ~flows:[]
    ~last_seqs:(Array.init trees (fun tree -> R2c2.Stack.last_seq st ~tree));
  Alcotest.(check bool) "caught up" true (R2c2.View.caught_up view);
  (* One round's digests, observed before and after the repair: a second
     round would skip the quiet streams. *)
  let digests = R2c2.Stack.emit_digests st in
  let verdicts () =
    List.map
      (fun d ->
        match R2c2.View.observe_digest view d with
        | R2c2.View.Synced -> "synced"
        | R2c2.View.Diverged -> "diverged"
        | R2c2.View.Gaps _ -> "gaps")
      digests
  in
  let before = verdicts () in
  Alcotest.(check bool) "digests seen" true (before <> []);
  Alcotest.(check (list string)) "every digest reports divergence"
    (List.map (fun _ -> "diverged") before) before;
  R2c2.Stack.sync_view st view;
  Alcotest.(check (list string)) "synced after repair"
    (List.map (fun _ -> "synced") before) (verdicts ())

(* The tree a sequenced broadcast rides, read off the wire. *)
let tree_of bytes =
  match Wire.decode_seq_broadcast bytes with
  | Ok (pkt, _, _) -> pkt.Wire.tree
  | Error e -> Alcotest.fail ("undecodable broadcast: " ^ e)

let verdict_name = function
  | R2c2.View.Synced -> "synced"
  | R2c2.View.Diverged -> "diverged"
  | R2c2.View.Gaps _ -> "gaps"

(* An event still in flight on one tree says nothing about another: a
   replica caught up on tree t answers t's digest [Synced] while it misses
   the newest event of tree t', whose own digest reports the gap. *)
let view_in_flight_other_tree_is_synced () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  let first = ref (-1) and held = ref [] in
  R2c2.Stack.on_broadcast_seq st (fun b ->
      let tree = tree_of b in
      if !first < 0 then first := tree;
      if tree = !first then feed view b else held := b :: !held);
  let opened = ref 0 in
  while !held = [] do
    incr opened;
    if !opened > 64 then Alcotest.fail "every flow rode one tree";
    ignore (R2c2.Stack.open_flow st ~src:0 ~dst:(1 + (!opened mod 7)))
  done;
  let other = tree_of (List.hd !held) in
  let ds = R2c2.Stack.emit_digests st in
  let observe tree =
    match List.find_opt (fun d -> d.Wire.dtree = tree) ds with
    | Some d -> verdict_name (R2c2.View.observe_digest view d)
    | None -> "no digest"
  in
  (* The caught-up tree first: no digest has exposed the other tree's gap
     yet, so the replica looks caught up on every tree. *)
  Alcotest.(check string) "caught-up tree synced" "synced" (observe !first);
  Alcotest.(check string) "in-flight tree has a gap" "gaps" (observe other);
  List.iter (feed view) (List.rev !held);
  Alcotest.(check bool) "hashes agree once delivered" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* -- digest backoff --------------------------------------------------------- *)

(* The rounds, 1-based, whose digests covered [tree]. *)
let digest_rounds ~tree rounds =
  List.concat
    (List.mapi (fun i ds -> if List.exists (fun d -> d.Wire.dtree = tree) ds then [ i + 1 ] else [])
       rounds)

let emit_rounds st n = List.init n (fun _ -> R2c2.Stack.emit_digests st)

(* Silent rounds between consecutive digest rounds. *)
let skips rs =
  let rec go = function a :: (b :: _ as rest) -> (b - a - 1) :: go rest | [ _ ] | [] -> [] in
  go rs

(* A stream that moved is digested in the very next round; left quiet it
   backs off, skipping 1, 2, 4 and then [Rbcast.digest_cap] rounds between
   digests, and moving again restarts the backoff. *)
let backoff_moved_stream_digested_quiet_stream_thins () =
  let st, _ = mk_stack () in
  let tree = ref (-1) in
  R2c2.Stack.on_broadcast_seq st (fun b -> tree := tree_of b);
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:3 in
  let tree = !tree in
  let quiet = emit_rounds st 40 in
  let rs = digest_rounds ~tree quiet in
  Alcotest.(check int) "moved stream digested in the next round" 1 (List.hd rs);
  let cap = Rbcast.digest_cap in
  Alcotest.(check (list int)) "quiet stream thins out to the cap"
    [ 1; 2; 4; cap; cap; cap ] (skips rs);
  List.iter
    (fun round ->
      List.iter
        (fun d ->
          Alcotest.(check int) "only the stream that carried events" tree d.Wire.dtree;
          Alcotest.(check int) "digest carries the tree's last seq" 0 d.Wire.last_seq)
        round)
    quiet;
  R2c2.Stack.close_flow st f;
  match R2c2.Stack.emit_digests st with
  | [ d ] ->
      Alcotest.(check int) "moved again: digested at once" tree d.Wire.dtree;
      Alcotest.(check int) "with the new last seq" 1 d.Wire.last_seq;
      Alcotest.(check (list int)) "backoff restarted" [ 2 ]
        (digest_rounds ~tree (emit_rounds st 3))
  | ds -> Alcotest.failf "expected one digest after the close, got %d" (List.length ds)

(* A replica loses a stream's final event and then the next [k] digests
   of that stream as well: the first digest it does receive exposes the
   gap, at most [Rbcast.digest_cap] silent rounds after the last one it
   missed, and the replay heals it. *)
let backoff_lost_final_event_repaired_within_cap () =
  let cap = Rbcast.digest_cap in
  for k = 0 to 6 do
    let st, _ = mk_stack () in
    let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
    let view = R2c2.View.create ~trees () in
    let deliver = ref true in
    R2c2.Stack.on_broadcast_seq st (fun b -> if !deliver then feed view b);
    let f = R2c2.Stack.open_flow st ~src:0 ~dst:3 in
    (* Let the stream back off fully before the loss. *)
    List.iter (List.iter (fun d -> ignore (R2c2.View.observe_digest view d))) (emit_rounds st 25);
    deliver := false;
    R2c2.Stack.close_flow st f;
    Alcotest.(check bool) "final event lost" true
      (R2c2.View.matrix_hash view <> R2c2.Stack.matrix_hash st);
    let missed = ref 0 and last_miss = ref 0 and repaired = ref 0 and round = ref 0 in
    while !repaired = 0 do
      incr round;
      if !round > 100 then Alcotest.failf "k = %d: not repaired in 100 rounds" k;
      List.iter
        (fun d ->
          if !missed < k then begin
            incr missed;
            last_miss := !round
          end
          else
            match R2c2.View.observe_digest view d with
            | R2c2.View.Gaps ranges ->
                List.iter
                  (fun (a, b) ->
                    match R2c2.Stack.replay_range st ~tree:d.Wire.dtree ~from_seq:a ~to_seq:b with
                    | Some batch -> ignore (R2c2.View.apply_batch view batch)
                    | None -> Alcotest.fail "replay log evicted too early")
                  ranges;
                repaired := !round
            | R2c2.View.Synced | R2c2.View.Diverged -> Alcotest.fail "the loss went unseen")
        (R2c2.Stack.emit_digests st)
    done;
    if !repaired - !last_miss - 1 > cap then
      Alcotest.failf "k = %d: %d silent rounds before the repair, cap %d" k
        (!repaired - !last_miss - 1) cap;
    Alcotest.(check bool) "healed" true (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)
  done

(* A NACK for a stream's newest event reports a loss no later packet will
   expose: whoever else lost it learns of it only from a digest, so the
   stream is due in the next round and restarts its backoff. A NACK for an
   older event leaves the backoff alone. *)
let backoff_reset_by_nack () =
  let config = { R2c2.Stack.trees_per_source = 1 } in
  let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 2; 2; 2 |]) in
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:3 in
  R2c2.Stack.close_flow st f;
  Alcotest.(check (list int)) "backed off to the cap" [ 1; 3; 6; 11 ]
    (digest_rounds ~tree:0 (emit_rounds st 12));
  Alcotest.(check bool) "older event replayed" true
    (R2c2.Stack.replay_range st ~tree:0 ~from_seq:0 ~to_seq:0 <> None);
  Alcotest.(check (list int)) "older event: still backing off" []
    (digest_rounds ~tree:0 (emit_rounds st 4));
  Alcotest.(check bool) "newest event replayed" true
    (R2c2.Stack.replay_range st ~tree:0 ~from_seq:1 ~to_seq:1 <> None);
  Alcotest.(check (list int)) "newest event: due at once, then backing off again" [ 1; 3 ]
    (digest_rounds ~tree:0 (emit_rounds st 4))

(* A restart forgets every backoff: the first stream of the new
   incarnation is digested in the next round even where the old one had
   backed off with the same last sequence number. *)
let backoff_reset_by_restart () =
  let config = { R2c2.Stack.trees_per_source = 1 } in
  let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 2; 2; 2 |]) in
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:3);
  Alcotest.(check (list int)) "backed off to the cap" [ 1; 3; 6; 11 ]
    (digest_rounds ~tree:0 (emit_rounds st 12));
  Alcotest.(check int) "quiet in the next round" 0 (List.length (R2c2.Stack.emit_digests st));
  ignore (R2c2.Stack.restart st);
  Alcotest.(check int) "quiet after the restart" 0 (List.length (R2c2.Stack.emit_digests st));
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:3);
  Alcotest.(check int) "same last seq as before the restart" 0 (R2c2.Stack.last_seq st ~tree:0);
  match R2c2.Stack.emit_digests st with
  | [ d ] -> Alcotest.(check int) "new incarnation's stream digested at once" 0 d.Wire.last_seq
  | ds -> Alcotest.failf "expected one digest after the restart, got %d" (List.length ds)

(* A NACK may name any 32-bit [to_seq]; the origin replays up to its newest
   sequence only, so a range to 2^32 - 1 returns at once with the batch,
   charges and backoff of one that ends at the newest sequence. *)
let replay_range_stops_at_last_seq () =
  let mk () =
    let config = { R2c2.Stack.trees_per_source = 1 } in
    let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 2; 2; 2 |]) in
    let f = R2c2.Stack.open_flow st ~src:0 ~dst:3 in
    R2c2.Stack.close_flow st f;
    ignore (emit_rounds st 12);
    st
  in
  let far = mk () and near = mk () in
  let t0 = Sys.time () in
  let got = R2c2.Stack.replay_range far ~tree:0 ~from_seq:0 ~to_seq:0xFFFF_FFFF in
  let cpu = Sys.time () -. t0 in
  let want = R2c2.Stack.replay_range near ~tree:0 ~from_seq:0 ~to_seq:1 in
  Alcotest.(check bool) (Printf.sprintf "returned at once (%.3f s)" cpu) true (cpu < 1.0);
  Alcotest.(check bool) "a two-event batch" true (want <> None);
  Alcotest.(check bool) "same batch" true (got = want);
  Alcotest.(check int) "same retransmits" (R2c2.Stack.event_retransmits near)
    (R2c2.Stack.event_retransmits far);
  Alcotest.(check int) "same reliability bytes" (R2c2.Stack.reliability_bytes_sent near)
    (R2c2.Stack.reliability_bytes_sent far);
  Alcotest.(check (list int)) "same backoff"
    (digest_rounds ~tree:0 (emit_rounds near 8))
    (digest_rounds ~tree:0 (emit_rounds far 8))

(* One NACK is answered with at most [Rbcast.nack_bound] = 256 events,
   however large its range: a 300-sequence gap gets the first 256, and the
   requester NACKs the other 44 again. *)
let replay_range_answers_at_most_the_bound () =
  let config = { R2c2.Stack.trees_per_source = 1 } in
  let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 2; 2; 2 |]) in
  for _ = 1 to 150 do
    R2c2.Stack.close_flow st (R2c2.Stack.open_flow st ~src:0 ~dst:3)
  done;
  Alcotest.(check int) "a 300-event stream" 299 (R2c2.Stack.last_seq st ~tree:0);
  let seqs from_seq to_seq =
    match R2c2.Stack.replay_range st ~tree:0 ~from_seq ~to_seq with
    | None -> []
    | Some batch -> (
        match Wire.decode_batch batch with
        | Ok items ->
            List.map
              (function
                | Wire.Item_seq_broadcast (_, _, seq) -> seq
                | Wire.Item_broadcast _ | Wire.Item_digest _ | Wire.Item_nack _ ->
                    Alcotest.fail "a repair batch carries sequenced events only")
              items
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "the bound" 256 Rbcast.nack_bound;
  Alcotest.(check (list int)) "the first 256 of a 300-sequence gap" (List.init 256 Fun.id)
    (seqs 0 299);
  Alcotest.(check int) "256 retransmits" 256 (R2c2.Stack.event_retransmits st);
  Alcotest.(check (list int)) "the re-NACKed rest" (List.init 44 (fun i -> 256 + i))
    (seqs 256 299)

(* A NACK whose bounded range reaches below the replay log gets [None],
   not the logged tail of the range: the requester needs a sync at once,
   as a simulated origin answers it. 66,000 events on one tree leave the
   newest 65,536 (464 .. 65,999) in the log; a refused NACK is charged
   nothing. *)
let replay_range_refuses_evicted_ranges () =
  let config = { R2c2.Stack.trees_per_source = 1 } in
  let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 2; 2; 2 |]) in
  for _ = 1 to 33_000 do
    R2c2.Stack.close_flow st (R2c2.Stack.open_flow st ~src:0 ~dst:3)
  done;
  Alcotest.(check int) "a 66,000-event stream" 65_999 (R2c2.Stack.last_seq st ~tree:0);
  let bytes = R2c2.Stack.reliability_bytes_sent st in
  Alcotest.(check bool) "300 .. 65,999: 300 .. 463 evicted" true
    (R2c2.Stack.replay_range st ~tree:0 ~from_seq:300 ~to_seq:65_999 = None);
  Alcotest.(check bool) "463 .. 463: evicted" true
    (R2c2.Stack.replay_range st ~tree:0 ~from_seq:463 ~to_seq:463 = None);
  Alcotest.(check int) "no retransmit charged" 0 (R2c2.Stack.event_retransmits st);
  Alcotest.(check int) "no byte charged" bytes (R2c2.Stack.reliability_bytes_sent st);
  match R2c2.Stack.replay_range st ~tree:0 ~from_seq:464 ~to_seq:65_999 with
  | None -> Alcotest.fail "464 .. 65,999 starts at the oldest logged sequence"
  | Some batch -> (
      match Wire.decode_batch batch with
      | Ok items ->
          Alcotest.(check (list int)) "its first 256 sequences" (List.init 256 (fun i -> 464 + i))
            (List.map
               (function
                 | Wire.Item_seq_broadcast (_, _, seq) -> seq
                 | Wire.Item_broadcast _ | Wire.Item_digest _ | Wire.Item_nack _ ->
                     Alcotest.fail "a repair batch carries sequenced events only")
               items);
          Alcotest.(check int) "256 retransmits" 256 (R2c2.Stack.event_retransmits st)
      | Error e -> Alcotest.fail e)

(* [Rbcast.replay_range] flags a range it cannot answer in full, the two
   cases where the simulator falls back to a sync: a sequence evicted from
   the log, and one past the newest. A range longer than the bound is cut
   to it and, when the cut range is all logged, not flagged. *)
let rbcast_replay_range_flags_unreplayable () =
  let o = Rbcast.origin ~log_cap:1 ~trees:1 () in
  ignore (Rbcast.send o ~tree:0 "a");
  ignore (Rbcast.send o ~tree:0 "b");
  let check msg want (from_seq, to_seq) =
    Alcotest.(check (pair (list (pair int string)) bool)) msg want
      (replay_all o ~tree:0 ~from_seq ~to_seq)
  in
  check "evicted sequence flagged" ([ (1, "b") ], true) (0, 1);
  check "logged sequence" ([ (1, "b") ], false) (1, 1);
  check "past the newest flagged" ([ (1, "b") ], true) (1, 5);
  check "nothing logged in range" ([], true) (2, 0xFFFF_FFFF);
  let o = Rbcast.origin ~trees:1 () in
  for i = 0 to 299 do
    ignore (Rbcast.send o ~tree:0 (string_of_int i))
  done;
  let got, lost = replay_all o ~tree:0 ~from_seq:0 ~to_seq:0xFFFF_FFFF in
  Alcotest.(check (list int)) "cut to the bound" (List.init 256 Fun.id) (List.map fst got);
  Alcotest.(check bool) "a logged cut range is not flagged" false lost;
  let got, lost = replay_all o ~tree:0 ~from_seq:100 ~to_seq:0xFFFF_FFFF in
  Alcotest.(check (list int)) "up to the newest" (List.init 200 (fun i -> 100 + i))
    (List.map fst got);
  Alcotest.(check bool) "a cut range past the newest is flagged" true lost;
  Alcotest.check_raises "empty range" (Invalid_argument "Rbcast.replay_range: empty range")
    (fun () -> ignore (replay_all o ~tree:0 ~from_seq:5 ~to_seq:4))

(* -- Stack: watchdog full-state sync and loss-scaled headroom -------------- *)

(* A watchdog round: the replicas whose matrix hash differs from the
   origin's. *)
let diverged st views =
  List.filter (fun v -> R2c2.View.matrix_hash v <> R2c2.Stack.matrix_hash st) views

let watchdog_repairs_diverged_view () =
  let st, _ = mk_stack () in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let connected = R2c2.View.create ~trees () in
  let deaf = R2c2.View.create ~trees () in
  R2c2.Stack.on_broadcast_seq st (fun b -> feed connected b);
  for i = 0 to 3 do
    ignore (R2c2.Stack.open_flow st ~src:i ~dst:(i + 4))
  done;
  let repair = diverged st [ connected; deaf ] in
  Alcotest.(check int) "one replica needs repair" 1 (List.length repair);
  List.iter (R2c2.Stack.sync_view st) repair;
  Alcotest.(check bool) "deaf replica synced" true
    (R2c2.View.matrix_hash deaf = R2c2.Stack.matrix_hash st);
  Alcotest.(check (list int)) "full flow set transferred"
    (R2c2.View.flow_ids connected) (R2c2.View.flow_ids deaf);
  Alcotest.(check int) "sync counted" 1 (R2c2.Stack.syncs_sent st);
  Alcotest.(check int) "clean watchdog round" 0
    (List.length (diverged st [ connected; deaf ]));
  (* Events after the sync flow through the fast-forwarded windows. *)
  R2c2.Stack.on_broadcast_seq st (fun b -> feed deaf b);
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  R2c2.Stack.close_flow st f;
  ignore (R2c2.Stack.open_flow st ~src:1 ~dst:6);
  Alcotest.(check bool) "post-sync stream applies" true
    (R2c2.View.matrix_hash deaf = R2c2.Stack.matrix_hash st)

let loss_ewma_scales_headroom () =
  let st, _ = mk_stack () in
  let base = Util.Units.to_float Topology.headroom in
  Alcotest.(check (float 1e-9)) "starts at configured headroom" base
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  R2c2.Stack.note_control_loss st ~sent:100 ~lost:10;
  Alcotest.(check (float 1e-9)) "EWMA weights the sample by 0.2" 0.02
    (Util.Units.to_float (R2c2.Stack.loss_ewma st));
  Alcotest.(check (float 1e-9)) "headroom grows with observed loss" (base +. (2.0 *. 0.02))
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  (* Persistent heavy loss saturates at the cap, never at an allocator-
     breaking value. *)
  for _ = 1 to 50 do
    R2c2.Stack.note_control_loss st ~sent:10 ~lost:9
  done;
  Alcotest.(check (float 1e-9)) "capped at max_headroom"
    (Util.Units.to_float Congestion.Overload.Loss_headroom.cap)
    (Util.Units.to_float (R2c2.Stack.effective_headroom st));
  (* A clean interval decays the estimate and the reserve follows. *)
  for _ = 1 to 50 do
    R2c2.Stack.note_control_loss st ~sent:100 ~lost:0
  done;
  Alcotest.(check bool) "recovers toward the base" true
    (Util.Units.to_float (R2c2.Stack.effective_headroom st) < base +. 0.01);
  Alcotest.check_raises "lost > sent rejected"
    (Invalid_argument "Stack.note_control_loss") (fun () ->
      R2c2.Stack.note_control_loss st ~sent:1 ~lost:2)

(* -- packet-level simulation under chaos ----------------------------------- *)

let interval = 100_000

let sim_cfg ?(loss = 0.0) ?(reorder = 0.0) ?(dup = 0.0) ?(seed = 7) () =
  {
    Sim.R2c2_sim.default_config with
    control = Sim.R2c2_sim.Per_node;
    reliable_bcast = true;
    recompute_interval_ns = interval;
    digest_interval_ns = 50_000;
    control_loss = Util.Units.fraction loss;
    control_reorder = Util.Units.fraction reorder;
    control_dup = Util.Units.fraction dup;
    seed;
  }

let permutation t topo ~size =
  let h = Topology.host_count topo in
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + (h / 2) + 1) mod h) ~size)
  done

let run_chaos ~loss () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss ()) topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  (t, Sim.R2c2_sim.results t, Topology.host_count topo)

(* Same seed, same chaos rates: every counter of the run is reproducible. *)
let chaos_is_deterministic () =
  let _, a, _ = run_chaos ~loss:0.03 () in
  let _, b, _ = run_chaos ~loss:0.03 () in
  let open Sim.R2c2_sim in
  let sig_of r =
    ( r.ctrl_lost,
      r.nacks_sent,
      r.event_retransmits,
      r.divergence_epochs,
      r.reconverge_samples,
      Sim.Metrics.completed_count r.metrics )
  in
  Alcotest.(check bool) "identical signatures" true (sig_of a = sig_of b);
  Alcotest.(check bool) "chaos actually fired" true (a.ctrl_lost > 0)

(* Loss at 5%: every flow still completes, the control plane reconverges,
   and every divergence window closes within a bounded number of epochs. *)
let reconverges_under_5pct_loss () =
  let t, r, h = run_chaos ~loss:0.05 () in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "all flows complete" h (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check (list int)) "no aborts" [] r.aborted_flows;
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  List.iter
    (fun s ->
      if s > 20 * interval then
        Alcotest.failf "reconvergence took %d ns > %d ns" s (20 * interval))
    r.reconverge_samples;
  Alcotest.(check bool) "repair machinery engaged" true (r.nacks_sent > 0)

(* Duplication without loss: windows absorb every duplicate and the run is
   indistinguishable from a clean one in its outcome. *)
let duplicates_are_absorbed () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~dup:0.2 ()) topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "all flows complete" (Topology.host_count topo)
    (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check bool) "duplicates injected" true (r.ctrl_dupped > 0);
  Alcotest.(check bool) "duplicates absorbed" true (r.dup_events_absorbed > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "converged" true (Sim.R2c2_sim.control_converged t)

(* The acceptance property: after a lossy period ends (rates flipped
   mid-run through the engine), every alive node's view reconverges to a
   byte-identical allocation vector. *)
let identical_allocations_after_2pct_loss () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ~loss:0.02 ()) topo in
  (* Lossy for the first 600 us, clean afterwards. *)
  Sim.R2c2_sim.inject_at t ~ns:600_000
    (Control_chaos
       {
         loss = Util.Units.fraction 0.0;
         reorder = Util.Units.fraction 0.0;
         dup = Util.Units.fraction 0.0;
       });
  permutation t topo ~size:3_000_000;
  Sim.R2c2_sim.run_engine ~until_ns:1_500_000 t;
  let h = Topology.host_count topo in
  Alcotest.(check bool) "flows still active mid-run" true
    (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics t) < h);
  Alcotest.(check int) "no diverged nodes" 0 (Sim.R2c2_sim.diverged_nodes t);
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  let reference = Sim.R2c2_sim.node_allocations t ~node:0 in
  Alcotest.(check bool) "views are non-trivial" true (Array.length reference > 0);
  for node = 1 to h - 1 do
    if Sim.R2c2_sim.node_allocations t ~node <> reference then
      Alcotest.failf "node %d computes a different allocation vector" node
  done;
  (* The observed-loss EWMA reacted while packets were being dropped. *)
  let r = Sim.R2c2_sim.results t in
  Alcotest.(check bool) "chaos fired" true (r.Sim.R2c2_sim.ctrl_lost > 0);
  Alcotest.(check bool) "headroom scaled up" true
    (r.Sim.R2c2_sim.effective_headroom > Sim.R2c2_sim.default_config.Sim.R2c2_sim.headroom);
  (* And the run still finishes cleanly. *)
  Sim.R2c2_sim.run_engine t;
  Alcotest.(check int) "all flows complete" h
    (Sim.Metrics.completed_count (Sim.R2c2_sim.metrics t))

(* Without loss there is nothing to repair: about 200 Poisson flows on the
   3x3x3 torus, under both control modes, complete with no NACK, no sync
   request, no sync and no replay — digests only confirm. *)
let lossless_plane_sends_no_repair_traffic () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let specs =
    Workload.Flowgen.poisson_pareto ~max_size:400_000 topo (Util.Rng.create 11) ~flows:200
      ~mean_interarrival_ns:2_000.0
  in
  List.iter
    (fun (name, control) ->
      let cfg = { (sim_cfg ()) with Sim.R2c2_sim.control } in
      let r = Sim.R2c2_sim.run cfg topo specs in
      let open Sim.R2c2_sim in
      Alcotest.(check int) (name ^ ": all flows complete") (List.length specs)
        (Sim.Metrics.completed_count r.metrics);
      Alcotest.(check (list int))
        (name ^ ": no NACK, sync request, sync or replay")
        [ 0; 0; 0; 0 ]
        [ r.nacks_sent; r.sync_requests; r.syncs_sent; r.event_retransmits ])
    [ ("Per_node", Sim.R2c2_sim.Per_node); ("Global_epoch", Sim.R2c2_sim.Global_epoch) ]

(* One re-flood serves every NACK inside a NACK delay: NACKs for the same
   sequence from two neighbours 5 us apart cost one replay, and a third,
   a window later, another. *)
let nack_replays_coalesce () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  let tree = Sim.R2c2_sim.flow_tree t (Sim.R2c2_sim.start_flow t ~src:0 ~dst:13 ~size:1_000_000) in
  let net = Sim.R2c2_sim.net t in
  let nack ~at requester =
    Sim.Engine.at (Sim.R2c2_sim.engine t) at (fun () ->
        let route = Sim.Net.intern_route net [| requester; 0 |] in
        Sim.Net.send_nack net ~root:0 ~tree ~from_seq:0 ~to_seq:0 ~requester
          ~bytes:Wire.nack_size ~route;
        Sim.Net.release_route net route)
  in
  nack ~at:10_000 1;
  nack ~at:15_000 2;
  nack ~at:40_000 3;
  Sim.R2c2_sim.run_engine ~until_ns:100_000 t;
  let r = Sim.R2c2_sim.results t in
  Alcotest.(check int) "no loss, no NACK of its own" 0 r.Sim.R2c2_sim.nacks_sent;
  Alcotest.(check int) "two re-floods for three NACKs" 2 r.Sim.R2c2_sim.event_retransmits

(* A detected topology change makes every stream due: in the digest round
   right after a link failure is detected, every stream that carried an
   event is digested, while the same round of an unfailed run only
   digests the streams whose backoff ran out. *)
let detected_change_resets_backoff () =
  let digested_after ~fail =
    let topo = Topology.torus [| 3; 3; 3 |] in
    let n = Topology.host_count topo in
    let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
    (* One long flow keeps the digest loop running; the short ones finish
       early, and their streams back off. *)
    let flows =
      (0, Sim.R2c2_sim.start_flow t ~src:0 ~dst:13 ~size:3_000_000)
      :: List.init (n - 1) (fun i ->
             (i + 1, Sim.R2c2_sim.start_flow t ~src:(i + 1) ~dst:((i + 2) mod n) ~size:20_000))
    in
    let net = Sim.R2c2_sim.net t and eng = Sim.R2c2_sim.engine t in
    let seen = Hashtbl.create 64 in
    Sim.Net.set_arrive_tap net (fun ~node:_ pkt ->
        let now = Sim.Engine.now eng in
        if Sim.Net.kind net pkt = Sim.Net.code_digest && now >= 601_000 && now < 651_000 then
          Hashtbl.replace seen (Sim.Net.digest_root net pkt, Sim.Net.digest_tree net pkt) ());
    if fail then Sim.R2c2_sim.inject_at t ~ns:600_000 (Fail_link (1, 2));
    Sim.R2c2_sim.run_engine ~until_ns:700_000 t;
    let streams =
      List.sort_uniq compare (List.map (fun (src, id) -> (src, Sim.R2c2_sim.flow_tree t id)) flows)
    in
    (List.length streams, List.length (List.filter (Hashtbl.mem seen) streams))
  in
  let streams, after_failure = digested_after ~fail:true in
  Alcotest.(check int) "every stream digested after the detection" streams after_failure;
  let _, unfailed = digested_after ~fail:false in
  Alcotest.(check bool) "an unfailed run's round is backed off" true (unfailed < streams)

(* With a replay log too small to answer NACKs, the origin must fall back
   to full-state sync — and the rack still reconverges. *)
let evicted_replay_falls_back_to_sync () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let cfg = { (sim_cfg ~loss:0.05 ()) with Sim.R2c2_sim.bcast_log_cap = 1 } in
  let t = Sim.R2c2_sim.create cfg topo in
  permutation t topo ~size:120_000;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "full-state syncs happened" true (r.syncs_sent > 0);
  Alcotest.(check bool) "sync traffic accounted" true (r.sync_bytes > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check int) "all flows complete" (Topology.host_count topo)
    (Sim.Metrics.completed_count r.metrics)

(* A dead node blackholes broadcast copies and digests; the counters must
   split the loss by plane and sum back to the total. *)
let blackhole_splits_control_and_data () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:200_000;
  Sim.R2c2_sim.inject_at t ~ns:100_000 (Fail_node 13);
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "split sums to total" r.blackholed_bytes
    (r.blackholed_data_bytes + r.blackholed_ctrl_bytes);
  Alcotest.(check bool) "control bytes were blackholed" true (r.blackholed_ctrl_bytes > 0);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged

(* The incremental per-origin view hash behind the digest check must equal
   a from-scratch hash of the view after any sequence of view writes. Every
   write path runs here: window-accepted deliveries, NACK replays and syncs
   under 5% loss with reordering and duplication, a crash and cold restart
   (view cleared, JOIN purge at the peers), a partition and heal, and flows
   aborted because an endpoint died. A second node fails with its state
   kept and later restarts cold, so a restart also clears a non-empty
   view. Every 50 us, each (node, origin) pair's hash, and each (node,
   origin, tree) hash, is checked against the origin's flows in
   [node_view_ids] — down nodes too, since the hashes are kept exact for
   every node. The crash and restarts land on
   poll instants and were scheduled before those polls, so a poll sees
   each view clear before anything else writes to the view. *)
let view_hash_cache_coherent () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let n = Topology.vertex_count topo in
  let cfg = sim_cfg ~loss:0.05 ~reorder:0.05 ~dup:0.05 () in
  let trees = Topology.trees_per_source in
  let t = Sim.R2c2_sim.create cfg topo in
  let eng = Sim.R2c2_sim.engine t in
  let src_of = Hashtbl.create 64 in
  let start ~src ~dst ~size =
    Hashtbl.replace src_of (Sim.R2c2_sim.start_flow t ~src ~dst ~size) src
  in
  (* A permutation now, and a second wave once the crashed node is back. *)
  for i = 0 to n - 1 do
    start ~src:i ~dst:((i + (n / 2) + 1) mod n) ~size:200_000
  done;
  Sim.Engine.at eng 600_000 (fun () ->
      for i = 0 to n - 1 do
        start ~src:i ~dst:((i + 5) mod n) ~size:60_000
      done);
  let checks = ref 0 and stale = ref [] in
  let check () =
    for node = 0 to n - 1 do
      let view = Sim.R2c2_sim.node_view_ids t ~node in
      for root = 0 to n - 1 do
        let ids = List.filter (fun id -> Hashtbl.find src_of id = root) view in
        incr checks;
        let scratch ids = List.fold_left (fun h id -> h + Replicas.id_hash id) 0 ids in
        if Sim.R2c2_sim.source_view_hash t ~node ~root <> scratch ids then
          stale := (Sim.Engine.now eng, node, root) :: !stale;
        for tree = 0 to trees - 1 do
          let on_tree = List.filter (fun id -> Sim.R2c2_sim.flow_tree t id = tree) ids in
          if Sim.R2c2_sim.source_view_hash ~tree t ~node ~root <> scratch on_tree then
            stale := (Sim.Engine.now eng, node, root) :: !stale
        done
      done
    done
  in
  let horizon = 4_000_000 in
  let rec poll () =
    check ();
    if Sim.Engine.now eng < horizon then Sim.Engine.after eng 50_000 poll
  in
  Sim.Engine.at eng 50_000 poll;
  Sim.R2c2_sim.inject_at t ~ns:200_000 (Fail_node 22);
  let steps =
    [
      Sim.Scenario.fault ~at:100_000 (Crash 13);
      Sim.Scenario.partition ~at:150_000 [ 0 ];
      Sim.Scenario.heal ~at:350_000 [ 0 ];
      Sim.Scenario.fault ~at:400_000 (Restart 13);
      Sim.Scenario.fault ~at:500_000 (Restart 22);
    ]
  in
  (* Bounded: a stale hash can make digests request syncs forever, which
     would keep the run from ever going idle. *)
  let report =
    Sim.Scenario.run ~until_ns:horizon ~invariants:[ Sim.Scenario.Byte_conservation ] t steps
  in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check (list string)) "no violations" [] report.Sim.Scenario.violations;
  (match !stale with
  | [] -> ()
  | (ns, node, root) :: _ ->
      Alcotest.failf "%d stale hashes; latest: node %d, origin %d at %d ns"
        (List.length !stale) node root ns);
  Alcotest.(check bool) "checked every step" true (!checks > n * n * 70);
  Alcotest.(check bool) "chaos lost, reordered and duplicated control packets" true
    (r.ctrl_lost > 0 && r.ctrl_reordered > 0 && r.ctrl_dupped > 0);
  Alcotest.(check bool) "repairs ran" true (r.nacks_sent > 0 && r.syncs_sent > 0);
  Alcotest.(check bool) "flows were aborted" true (r.aborted_flows <> []);
  Alcotest.(check int) "every other flow completed" (2 * n)
    (Sim.Metrics.completed_count r.metrics + List.length r.aborted_flows);
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check int) "both restarted nodes rejoined" 2 (List.length r.rejoins);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged

let suites =
  [
    ( "control-loss",
      [
        tc "rbcast window orders and dedups" rbcast_window_orders_and_dedups;
        QCheck_alcotest.to_alcotest qcheck_replay_ring_matches_log;
        tc "view batched repair heals all loss" view_batched_repair_heals_all_loss;
        tc "view dedups duplicates" view_dedups_duplicates;
        tc "view refuses every bit flip" view_refuses_every_bit_flip;
        tc "view keeps the decoder's error messages" view_keeps_error_messages;
        tc "view: an in-order event allocates nothing" view_in_order_event_allocates_nothing;
        tc "view ignores a stale digest" view_stale_digest_is_not_divergence;
        tc "caught-up view with wrong set diverges" view_caught_up_wrong_set_diverges;
        tc "in-flight event on another tree is not divergence" view_in_flight_other_tree_is_synced;
        tc "backoff: moved digested, quiet thins to cap"
          backoff_moved_stream_digested_quiet_stream_thins;
        tc "backoff: lost final event repaired within cap"
          backoff_lost_final_event_repaired_within_cap;
        tc "backoff: a NACK resets its stream" backoff_reset_by_nack;
        tc "backoff: restart resets it" backoff_reset_by_restart;
        tc "replay range stops at the newest sequence" replay_range_stops_at_last_seq;
        tc "replay range answers at most the NACK bound" replay_range_answers_at_most_the_bound;
        tc "replay range refuses a partly evicted range" replay_range_refuses_evicted_ranges;
        tc "rbcast replay range flags what it cannot replay"
          rbcast_replay_range_flags_unreplayable;
        tc "watchdog repairs diverged view" watchdog_repairs_diverged_view;
        tc "loss EWMA scales headroom" loss_ewma_scales_headroom;
        tc "chaos is seed-deterministic" chaos_is_deterministic;
        tc "reconverges under 5% loss" reconverges_under_5pct_loss;
        tc "duplicates are absorbed" duplicates_are_absorbed;
        tc "identical allocations after 2% loss" identical_allocations_after_2pct_loss;
        tc "lossless plane sends no repair traffic" lossless_plane_sends_no_repair_traffic;
        tc "replays coalesce within the NACK delay" nack_replays_coalesce;
        tc "a detected topology change resets the backoff" detected_change_resets_backoff;
        tc "evicted replay falls back to sync" evicted_replay_falls_back_to_sync;
        tc "blackhole splits control and data" blackhole_splits_control_and_data;
        tc "view-hash cache stays coherent" view_hash_cache_coherent;
      ] );
  ]
