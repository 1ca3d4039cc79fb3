(* PR 7 robustness: crash-restart with cold rejoin, gray-failure (flaky
   link) quarantine, and the declarative chaos-scenario engine with
   invariant monitors. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* -- Rbcast: incarnations --------------------------------------------------- *)

let rbcast_restart_bumps_incarnation () =
  let o = Rbcast.origin ~trees:2 () in
  ignore (Rbcast.send o ~tree:0 "a");
  ignore (Rbcast.send o ~tree:0 "b");
  Alcotest.(check int) "first life" 0 (Rbcast.incarnation o);
  let inc = Rbcast.restart o in
  Alcotest.(check int) "incarnation bumped" 1 inc;
  Alcotest.(check int) "log forgotten" (-1) (Rbcast.last_seq o ~tree:0);
  Alcotest.(check int) "streams restart at zero" 0 (Rbcast.send o ~tree:0 "c");
  Alcotest.(check int) "other trees too" 0 (Rbcast.send o ~tree:1 "x")

(* The satellite regression: a receive window surviving an origin crash
   keeps its old sequence position, so the fresh incarnation's seq 0 is
   absorbed as a duplicate and the event silently lost. [Replicas.admit]
   re-keys the window to the incarnation and is the fix. *)
let stale_window_duplicate_regression () =
  let o = Rbcast.origin ~trees:1 () in
  let r = Replicas.create ~replicas:1 ~origins:1 ~trees:1 in
  let w = Replicas.window r ~replica:0 ~origin:0 ~tree:0 in
  (* Event [2 * i] stands for payload [names.(i)]. *)
  let names = [| "a"; "b"; "c" |] in
  let receive ~seq i =
    let run = ref [] in
    let v = Replicas.receive r w ~seq (2 * i) ~deliver:(fun _ ev -> run := names.(ev / 2) :: !run) in
    (v, List.rev !run)
  in
  ignore (Rbcast.send o ~tree:0 "a");
  ignore (Rbcast.send o ~tree:0 "b");
  (match receive ~seq:0 0 with
  | Replicas.Delivered, _ -> ()
  | (Replicas.Duplicate | Replicas.Buffered), _ -> Alcotest.fail "first life seq 0");
  (match receive ~seq:1 1 with
  | Replicas.Delivered, _ -> ()
  | (Replicas.Duplicate | Replicas.Buffered), _ -> Alcotest.fail "first life seq 1");
  let inc = Rbcast.restart o in
  let seq = Rbcast.send o ~tree:0 "c" in
  Alcotest.(check int) "new life starts at seq 0" 0 seq;
  (* The hazard itself: without re-keying, the stale window eats it. *)
  (match receive ~seq 2 with
  | Replicas.Duplicate, _ -> ()
  | (Replicas.Delivered | Replicas.Buffered), _ ->
      Alcotest.fail "hazard gone: stale window no longer absorbs seq 0");
  Alcotest.(check bool) "new incarnation re-keys" true (Replicas.admit r w ~inc);
  Alcotest.(check int) "window speaks the new incarnation" inc (Replicas.incarnation r w);
  Alcotest.(check bool) "old incarnation now stale" false (Replicas.admit r w ~inc:(inc - 1));
  (match receive ~seq 2 with
  | Replicas.Delivered, ps -> Alcotest.(check (list string)) "new life delivers" [ "c" ] ps
  | (Replicas.Duplicate | Replicas.Buffered), _ -> Alcotest.fail "post-restart event lost");
  (match receive ~seq 2 with
  | Replicas.Duplicate, _ -> ()
  | (Replicas.Delivered | Replicas.Buffered), _ -> Alcotest.fail "dedup broke after re-key");
  Alcotest.(check bool) "same incarnation is a no-op" true (Replicas.admit r w ~inc)

(* -- Stack / View: restart, JOIN, snapshot request -------------------------- *)

let feed view bytes =
  match R2c2.View.apply view bytes with
  | R2c2.View.Malformed e -> Alcotest.fail ("view rejected stack bytes: " ^ e)
  | R2c2.View.Applied _ | R2c2.View.Duplicate | R2c2.View.Buffered -> ()

let stack_restart_and_snapshot_request () =
  let topo = Topology.torus [| 2; 2; 2 |] in
  let st = R2c2.Stack.create ~seed:5 topo in
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:1);
  ignore (R2c2.Stack.open_flow st ~src:2 ~dst:3);
  Alcotest.(check int) "first life" 0 (R2c2.Stack.incarnation st);
  let join = R2c2.Stack.restart ~src:4 st in
  Alcotest.(check int) "incarnation bumped" 1 (R2c2.Stack.incarnation st);
  Alcotest.(check int) "open flows dropped silently" 0
    (List.length (R2c2.Stack.active_flows st));
  (match Wire.decode_join join with
  | Ok j ->
      Alcotest.(check int) "JOIN names the node" 4 j.Wire.jnode;
      Alcotest.(check int) "JOIN carries the incarnation" 1 j.Wire.jinc
  | Error e -> Alcotest.fail ("JOIN does not decode: " ^ e));
  let sr = R2c2.Stack.snapshot_request ~requester:4 st ~root:2 in
  (match Wire.decode_snapshot_req sr with
  | Ok s ->
      Alcotest.(check int) "asks the right origin" 2 s.Wire.sroot;
      Alcotest.(check int) "names the requester" 4 s.Wire.srequester;
      Alcotest.(check int) "carries the incarnation" 1 s.Wire.sinc
  | Error e -> Alcotest.fail ("SNAPSHOT-REQ does not decode: " ^ e));
  (* The reborn origin's streams start over. *)
  let seq0 = ref (-1) in
  R2c2.Stack.on_broadcast_seq st (fun b ->
      match Wire.decode_seq_broadcast b with
      | Ok (_, _, seq) -> if !seq0 < 0 then seq0 := seq
      | Error e -> Alcotest.fail e);
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:5);
  Alcotest.(check int) "post-restart stream starts at seq 0" 0 !seq0

let view_observe_incarnation () =
  let topo = Topology.torus [| 2; 2; 2 |] in
  let st = R2c2.Stack.create ~seed:5 topo in
  let trees = (R2c2.Stack.config st).R2c2.Stack.trees_per_source in
  let view = R2c2.View.create ~trees () in
  R2c2.Stack.on_broadcast_seq st (fun b -> feed view b);
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:1);
  ignore (R2c2.Stack.open_flow st ~src:2 ~dst:3);
  Alcotest.(check int) "replica believes two flows" 2 (R2c2.View.flow_count view);
  (match R2c2.View.observe_incarnation view ~inc:0 with
  | `Current -> ()
  | `Reset | `Stale -> Alcotest.fail "matching incarnation must be current");
  let join = R2c2.Stack.restart st in
  let inc =
    match Wire.decode_join join with
    | Ok j -> j.Wire.jinc
    | Error e -> Alcotest.fail e
  in
  (match R2c2.View.observe_incarnation view ~inc with
  | `Reset -> ()
  | `Current | `Stale -> Alcotest.fail "a restart must reset the replica");
  Alcotest.(check int) "believed flows dropped" 0 (R2c2.View.flow_count view);
  (match R2c2.View.observe_incarnation view ~inc:0 with
  | `Stale -> ()
  | `Current | `Reset -> Alcotest.fail "the old incarnation is stale");
  (* The new life's stream — starting back at seq 0 — applies cleanly
     through the re-keyed windows instead of being eaten as duplicates. *)
  ignore (R2c2.Stack.open_flow st ~src:4 ~dst:5);
  Alcotest.(check int) "new life applied" 1 (R2c2.View.flow_count view);
  Alcotest.(check bool) "replica tracks the new life" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* A digest sent before a restart and delivered after it describes streams
   the reborn source no longer has. Taken as current, it would have the
   replica NACK sequences the new life never sent, a gap no repair
   closes. *)
let view_ignores_stale_digest () =
  let config = { R2c2.Stack.trees_per_source = 1 } in
  let st = R2c2.Stack.create ~config ~seed:5 (Topology.torus [| 4; 4 |]) in
  let view = R2c2.View.create ~trees:1 () in
  R2c2.Stack.on_broadcast_seq st (fun b -> feed view b);
  for i = 0 to 9 do
    ignore (R2c2.Stack.open_flow st ~src:i ~dst:(i + 1))
  done;
  let old =
    match R2c2.Stack.emit_digests st with
    | [ d ] -> d
    | ds -> Alcotest.failf "expected one digest, got %d" (List.length ds)
  in
  Alcotest.(check int) "the old digest covers ten events" 9 old.Wire.last_seq;
  let inc =
    match Wire.decode_join (R2c2.Stack.restart st) with
    | Ok j -> j.Wire.jinc
    | Error e -> Alcotest.fail e
  in
  (match R2c2.View.observe_incarnation view ~inc with
  | `Reset -> ()
  | `Current | `Stale -> Alcotest.fail "a restart must reset the replica");
  ignore (R2c2.Stack.open_flow st ~src:0 ~dst:1);
  (match R2c2.View.observe_digest view old with
  | R2c2.View.Synced -> ()
  | R2c2.View.Gaps g -> Alcotest.failf "stale digest taken as current: %d gap(s)" (List.length g)
  | R2c2.View.Diverged -> Alcotest.fail "stale digest taken as current: diverged");
  Alcotest.(check bool) "caught up" true (R2c2.View.caught_up view);
  List.iter
    (fun d ->
      match R2c2.View.observe_digest view d with
      | R2c2.View.Synced -> ()
      | R2c2.View.Gaps _ | R2c2.View.Diverged -> Alcotest.fail "the new life's digest must agree")
    (R2c2.Stack.emit_digests st);
  Alcotest.(check bool) "replica tracks the new life" true
    (R2c2.View.matrix_hash view = R2c2.Stack.matrix_hash st)

(* The digest's epoch word: the incarnation rides above the round, the
   round alone when the origin never restarted, and the word fits the
   32-bit wire field. *)
let digest_epoch_word () =
  Alcotest.(check int) "incarnation 0 is the round" 41 (Wire.pack_epoch ~inc:0 ~epoch:41);
  Alcotest.(check int) "incarnation survives a wrapped round" 3
    (Wire.unpack_inc (Wire.pack_epoch ~inc:3 ~epoch:((1 lsl 40) + 7)));
  let top = Wire.pack_epoch ~inc:0xFFFF ~epoch:max_int in
  Alcotest.(check int) "largest incarnation" 0xFFFF (Wire.unpack_inc top);
  Alcotest.(check bool) "fits 32 bits" true (top lsr 32 = 0);
  Alcotest.check_raises "incarnation bound" (Invalid_argument "Wire.pack_epoch: incarnation")
    (fun () -> ignore (Wire.pack_epoch ~inc:0x10000 ~epoch:1));
  (* A digest round stamps each digest with this word. *)
  let o = Rbcast.origin ~trees:1 () in
  ignore (Rbcast.send o ~tree:0 "a");
  ignore (Rbcast.restart o);
  ignore (Rbcast.send o ~tree:0 "b");
  let words = ref [] in
  Rbcast.digest_round o (fun ~epoch ~tree:_ ~last_seq:_ ~hash:_ -> words := epoch :: !words);
  Alcotest.(check (list int)) "round 2 of incarnation 1" [ Wire.pack_epoch ~inc:1 ~epoch:2 ]
    !words

(* -- Routing: quarantine state machine -------------------------------------- *)

let quarantine_state_machine () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  Alcotest.(check int) "clean ctx has nothing demoted" 0 (Routing.demoted_links ctx);
  (match Routing.link_health ctx 0 1 with
  | Routing.Healthy -> ()
  | Routing.Probation | Routing.Quarantined -> Alcotest.fail "fresh cable must be healthy");
  Routing.note_suspect ctx 0 1;
  (match Routing.link_health ctx 0 1 with
  | Routing.Quarantined -> ()
  | Routing.Healthy | Routing.Probation -> Alcotest.fail "suspect must quarantine");
  Alcotest.(check int) "both directions demoted" 2 (Routing.demoted_links ctx);
  Routing.note_probation ctx 0 1;
  (match Routing.link_health ctx 1 0 with
  | Routing.Probation -> ()
  | Routing.Healthy | Routing.Quarantined -> Alcotest.fail "probation is symmetric");
  Alcotest.(check int) "probation still demoted" 2 (Routing.demoted_links ctx);
  Routing.note_recovered ctx 0 1;
  (match Routing.link_health ctx 0 1 with
  | Routing.Healthy -> ()
  | Routing.Probation | Routing.Quarantined -> Alcotest.fail "recovery must clear");
  Alcotest.(check int) "clean again" 0 (Routing.demoted_links ctx)

let quarantine_demotes_spray () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  (* 0 = (0,0) -> 5 = (1,1): two productive first hops, vertices 1 and 4.
     Quarantine the 0-1 cable; the spray must shift towards 4 without ever
     abandoning 1 — demoted, not deleted. *)
  Routing.note_suspect ctx 0 1;
  let rng = Util.Rng.create 23 in
  let via1 = ref 0 and n = 2000 in
  for _ = 1 to n do
    let p = Routing.sample_path ctx rng Routing.Rps ~src:0 ~dst:5 in
    if p.(1) = 1 then incr via1
  done;
  let frac = float_of_int !via1 /. float_of_int n in
  Alcotest.(check bool) "demoted link still probed" true (!via1 > 0);
  Alcotest.(check bool) "well below its fair 50% share" true (frac < 0.25);
  (* Expected share: w / (1 + w) with w = 0.125, about 11%. *)
  Alcotest.(check bool) "near its quarantine weight" true (frac > 0.02);
  (* Recovery restores the exact legacy draw: two same-seeded generators,
     one on a never-touched ctx and one on the recovered ctx, must sample
     identical paths — quarantine left no residue in the RNG stream. *)
  Routing.note_recovered ctx 0 1;
  let fresh = Routing.make topo in
  let r1 = Util.Rng.create 99 and r2 = Util.Rng.create 99 in
  for _ = 1 to 200 do
    let a = Routing.sample_path ctx r1 Routing.Rps ~src:0 ~dst:5 in
    let b = Routing.sample_path fresh r2 Routing.Rps ~src:0 ~dst:5 in
    if a <> b then Alcotest.fail "recovered ctx diverges from the legacy draw"
  done

(* -- packet-level simulation ------------------------------------------------ *)

let interval = 100_000

let sim_cfg ?(seed = 7) () =
  {
    Sim.R2c2_sim.default_config with
    control = Sim.R2c2_sim.Per_node;
    reliable_bcast = true;
    recompute_interval_ns = interval;
    digest_interval_ns = 50_000;
    seed;
  }

let permutation t topo ~size =
  let h = Topology.host_count topo in
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + (h / 2) + 1) mod h) ~size)
  done

(* A flaky cable must be noticed (quarantined), kept on probation after the
   glitch clears, and eventually recovered — with every gray loss routed
   through the ordinary drop path so payload accounting still balances. *)
let flaky_quarantine_and_recovery () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:400_000;
  Sim.R2c2_sim.inject_at t ~ns:20_000
    (Flaky { u = 1; v = 2; loss = U.fraction 0.3; spike = U.fraction 0.2; spike_ns = None });
  Sim.R2c2_sim.inject_at t ~ns:700_000 (Unflaky (1, 2));
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "gray losses happened" true (r.flaky_lost > 0);
  Alcotest.(check bool) "lost bytes counted" true (r.flaky_lost_bytes > 0);
  Alcotest.(check bool) "cable was quarantined" true (r.quarantines >= 1);
  Alcotest.(check bool) "probation happened" true (r.probations >= 1);
  Alcotest.(check bool) "cable recovered" true (r.recoveries >= 1);
  (match Sim.R2c2_sim.link_health t 1 2 with
  | Routing.Healthy -> ()
  | Routing.Probation | Routing.Quarantined ->
      Alcotest.fail "link still demoted after the glitch cleared");
  Alcotest.(check int) "byte conservation" r.injected_payload
    (r.delivered_payload + r.dropped_payload + r.blackholed_payload);
  Alcotest.(check int) "all flows complete" (Topology.host_count topo)
    (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged

let crash_restart_rejoins () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:200_000;
  Sim.R2c2_sim.inject_at t ~ns:100_000 (Crash 13);
  Sim.R2c2_sim.inject_at t ~ns:400_000 (Restart 13);
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "crash recorded" true
    (List.exists (fun f -> f.kind = "crash") r.failures);
  Alcotest.(check bool) "restart recorded" true
    (List.exists (fun f -> f.kind = "restart") r.failures);
  Alcotest.(check bool) "JOIN announced" true (r.joins_sent >= 1);
  (match r.rejoins with
  | [ (node, start, fin) ] ->
      Alcotest.(check int) "node 13 rejoined" 13 node;
      Alcotest.(check int) "stamped at the restart instant" 400_000 start;
      Alcotest.(check bool) "caught up after coming back" true (fin >= start)
  | l -> Alcotest.failf "expected exactly one rejoin, got %d" (List.length l));
  Alcotest.(check int) "no rejoin left pending" 0 r.rejoins_pending;
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged;
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t);
  Alcotest.(check bool) "the crash killed its flows" true
    (List.length r.aborted_flows >= 1);
  Alcotest.(check int) "every surviving flow completes"
    (Topology.host_count topo - List.length r.aborted_flows)
    (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check int) "byte conservation across the crash" r.injected_payload
    (r.delivered_payload + r.dropped_payload + r.blackholed_payload)

(* -- chaos-scenario engine -------------------------------------------------- *)

let all_invariants =
  [
    Sim.Scenario.Byte_conservation;
    Sim.Scenario.No_crashed_traversal;
    Sim.Scenario.Reconverge_within { max_ns = 2_000_000 };
    Sim.Scenario.View_staleness { max_ns = 1_000_000; poll_ns = 50_000 };
  ]

let scenario_clean_run_no_violations () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:120_000;
  let report = Sim.Scenario.run ~invariants:all_invariants t [] in
  Alcotest.(check (list string)) "no violations" [] report.Sim.Scenario.violations;
  Alcotest.(check bool) "monitors actually evaluated" true
    (report.Sim.Scenario.checks > 0);
  Alcotest.(check bool) "run went somewhere" true (report.Sim.Scenario.end_ns > 0)

let scenario_partition_heals () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:200_000;
  let steps =
    [ Sim.Scenario.partition ~at:100_000 [ 0 ]; Sim.Scenario.heal ~at:300_000 [ 0 ] ]
  in
  let report =
    Sim.Scenario.run
      ~invariants:
        [ Sim.Scenario.Byte_conservation; Sim.Scenario.Reconverge_within { max_ns = 2_000_000 } ]
      t steps
  in
  Alcotest.(check (list string)) "no violations" [] report.Sim.Scenario.violations;
  let r = Sim.R2c2_sim.results t in
  (* Node 0 has 6 cables on a 3x3x3 torus: 6 cuts + 6 restores. *)
  Alcotest.(check int) "all twelve link events recorded" 12
    (List.length r.Sim.R2c2_sim.failures);
  Alcotest.(check int) "zero terminal divergence" 0 r.Sim.R2c2_sim.terminal_diverged;
  (* The heal lands after every flow completed — exactly the case where
     anti-entropy must come back from idle to repair the cut-off node. *)
  Alcotest.(check bool) "cut-off node was repaired by syncs or replays" true
    (r.Sim.R2c2_sim.syncs_sent + r.Sim.R2c2_sim.event_retransmits > 0)

let scenario_reports_violations () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:120_000;
  let steps = [ Sim.Scenario.fault ~at:50_000 (Fail_link (0, 1)) ] in
  (* A zero reconvergence bound is unsatisfiable: detection always precedes
     the next rate epoch. The monitor must both call the hook and return
     the violation in the report. *)
  let seen = ref [] in
  let report =
    Sim.Scenario.run
      ~on_violation:(fun m -> seen := m :: !seen)
      ~invariants:[ Sim.Scenario.Reconverge_within { max_ns = 0 } ]
      t steps
  in
  Alcotest.(check bool) "violations reported" true
    (report.Sim.Scenario.violations <> []);
  Alcotest.(check int) "hook fired once per violation"
    (List.length report.Sim.Scenario.violations)
    (List.length !seen)

let scenario_default_hook_fails_loudly () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:120_000;
  let steps = [ Sim.Scenario.fault ~at:50_000 (Fail_link (0, 1)) ] in
  match
    Sim.Scenario.run ~invariants:[ Sim.Scenario.Reconverge_within { max_ns = 0 } ] t steps
  with
  | _ -> Alcotest.fail "unsatisfiable invariant must kill the run"
  | exception Failure _ -> ()

(* A timeline that needs every part of the fault vocabulary: a cable fails
   and comes back, a node fails keeping its state, and the control plane
   turns lossy mid-run and clean again — with every monitor armed. *)
let scenario_fault_vocabulary () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let t = Sim.R2c2_sim.create (sim_cfg ()) topo in
  permutation t topo ~size:200_000;
  let chaos loss =
    Sim.R2c2_sim.Control_chaos
      { loss = U.fraction loss; reorder = U.fraction 0.0; dup = U.fraction 0.0 }
  in
  let steps =
    [
      Sim.Scenario.fault ~at:40_000 (Fail_link (1, 2));
      Sim.Scenario.fault ~at:60_000 (chaos 0.02);
      Sim.Scenario.fault ~at:100_000 (Fail_node 21);
      Sim.Scenario.fault ~at:250_000 (Restore_link (1, 2));
      Sim.Scenario.fault ~at:400_000 (chaos 0.0);
    ]
  in
  let report = Sim.Scenario.run ~invariants:all_invariants t steps in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check (list string)) "no violations" [] report.Sim.Scenario.violations;
  Alcotest.(check bool) "the lossy stretch lost control packets" true (r.ctrl_lost > 0);
  Alcotest.(check int) "three failure records" 3 (List.length r.failures);
  Alcotest.(check bool) "the node failure aborted flows" true (r.aborted_flows <> []);
  Alcotest.(check int) "every flow not aborted completes"
    (Topology.host_count topo - List.length r.aborted_flows)
    (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check bool) "control plane converged" true (Sim.R2c2_sim.control_converged t)

(* The graychaos composition — one node crash-restart plus two flaky
   cables — with every invariant armed. Returns a byte-exact snapshot for
   the determinism and backend-differential checks. *)
let graychaos_scenario ?(backend = Sim.Engine.Calendar) () =
  let topo = Topology.torus [| 3; 3; 3 |] in
  let cfg = { (sim_cfg ()) with Sim.R2c2_sim.engine_backend = backend } in
  let t = Sim.R2c2_sim.create cfg topo in
  let h = Topology.host_count topo in
  for i = 0 to h - 1 do
    let src = i and dst = (i + (h / 2) + 1) mod h in
    Sim.Engine.at (Sim.R2c2_sim.engine t) (i * 3_000) (fun () ->
        ignore (Sim.R2c2_sim.start_flow t ~src ~dst ~size:200_000))
  done;
  let flaky u v =
    Sim.R2c2_sim.Flaky
      { u; v; loss = U.fraction 0.25; spike = U.fraction 0.1; spike_ns = None }
  in
  let steps =
    [
      Sim.Scenario.fault ~at:50_000 (flaky 1 2);
      Sim.Scenario.fault ~at:60_000 (flaky 4 5);
      Sim.Scenario.fault ~at:100_000 (Crash 13);
      Sim.Scenario.fault ~at:400_000 (Restart 13);
      Sim.Scenario.fault ~at:700_000 (Unflaky (1, 2));
      Sim.Scenario.fault ~at:700_000 (Unflaky (4, 5));
    ]
  in
  let report = Sim.Scenario.run ~invariants:all_invariants t steps in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (f : Sim.Metrics.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d %d->%d del=%d fin=%d\n" f.id f.src f.dst f.delivered
           f.finish_ns))
    (Sim.Metrics.all r.metrics);
  List.iter
    (fun (node, s, e) -> Buffer.add_string buf (Printf.sprintf "rejoin %d %d %d\n" node s e))
    r.rejoins;
  Buffer.add_string buf
    (Printf.sprintf "flaky=%d/%dB quar=%d prob=%d rec=%d joins=%d rtx=%d nacks=%d syncs=%d\n"
       r.flaky_lost r.flaky_lost_bytes r.quarantines r.probations r.recoveries r.joins_sent
       r.retransmissions r.nacks_sent r.syncs_sent);
  Buffer.add_string buf
    (Printf.sprintf "checks=%d staleness=%d end=%d\n" report.Sim.Scenario.checks
       report.Sim.Scenario.worst_staleness_ns report.Sim.Scenario.end_ns);
  (Buffer.contents buf, report, r)

let graychaos_invariants_hold () =
  let _, report, r = graychaos_scenario () in
  Alcotest.(check (list string)) "every invariant monitor passes" []
    report.Sim.Scenario.violations;
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "gray losses happened" true (r.flaky_lost > 0);
  Alcotest.(check bool) "quarantine engaged" true (r.quarantines >= 1);
  Alcotest.(check int) "the crashed node rejoined" 1 (List.length r.rejoins);
  Alcotest.(check int) "nothing left pending" 0 r.rejoins_pending;
  Alcotest.(check int) "zero terminal divergence" 0 r.terminal_diverged

(* Satellite: same-seed chaos scenarios are byte-identical — across two
   runs, and across the Calendar and Binary_heap engine backends (the
   crash-restart and flaky-link machinery joins the PR 6 differential
   surface). *)
let graychaos_deterministic () =
  let s1, _, _ = graychaos_scenario () in
  let s2, _, _ = graychaos_scenario () in
  Alcotest.(check bool) "snapshot non-trivial" true (String.length s1 > 200);
  Alcotest.(check string) "same seed, same bytes" s1 s2

let graychaos_backend_differential () =
  let cal, _, _ = graychaos_scenario ~backend:Sim.Engine.Calendar () in
  let heap, _, _ = graychaos_scenario ~backend:Sim.Engine.Binary_heap () in
  Alcotest.(check string) "heap = calendar under chaos" cal heap

let suites =
  [
    ( "robustness",
      [
        tc "rbcast restart bumps incarnation" rbcast_restart_bumps_incarnation;
        tc "stale window duplicate regression" stale_window_duplicate_regression;
        tc "stack restart and snapshot request" stack_restart_and_snapshot_request;
        tc "view observes incarnations" view_observe_incarnation;
        tc "view ignores a digest from before a restart" view_ignores_stale_digest;
        tc "digest epoch word carries the incarnation" digest_epoch_word;
        tc "quarantine state machine" quarantine_state_machine;
        tc "quarantine demotes spray" quarantine_demotes_spray;
        tc "flaky link quarantined and recovered" flaky_quarantine_and_recovery;
        tc "crash-restart rejoins" crash_restart_rejoins;
        tc "scenario: clean run, no violations" scenario_clean_run_no_violations;
        tc "scenario: partition heals" scenario_partition_heals;
        tc "scenario: violations reported" scenario_reports_violations;
        tc "scenario: default hook fails loudly" scenario_default_hook_fails_loudly;
        tc "scenario: link, node and control-chaos faults" scenario_fault_vocabulary;
        tc "graychaos invariants hold" graychaos_invariants_hold;
        tc "graychaos deterministic" graychaos_deterministic;
        tc "graychaos backend differential" graychaos_backend_differential;
      ] );
  ]
