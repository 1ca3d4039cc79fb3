(* Gray-failure chaos bench (writes BENCH_graychaos.json) -----------------
   The gray-failure robustness story end to end on the paper's 8x8x8
   torus: a permutation workload runs while one node crash-restarts
   (losing all soft state and rejoining cold through the JOIN /
   snapshot-request protocol) and two cables turn gray — intermittently
   lossy at a rate the health estimator must notice and quarantine. The
   whole timeline is a {!Sim.Scenario} with every invariant monitor armed;
   the run exits non-zero if a monitor fires, goodput retention against
   the unfailed baseline drops below 95%, the rejoin takes longer than the
   bound, or two same-seed runs differ. *)

let dims = [| 8; 8; 8 |]
let size = 600_000
let interval = 100_000
let digest = 50_000

(* Global-epoch control at the paper's 512-node scale. Per_node costs
   about twice its wall clock here, and not in the believed sets, whose
   update is one slot lookup per flow event and replica: with every flow
   of the permutation live at once and a 100 us epoch, each sender's
   refill and water-fill of the allocator over the flows it believes is
   about half of a Per_node run. The Per_node rejoin path runs at test
   scale in test_robustness.ml. Reliable broadcast is on: the
   crash-restart rejoin protocol rides the digest / NACK / replay
   machinery. *)
let scenario ?invariants ~name steps =
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      reliable_bcast = true;
      recompute_interval_ns = interval;
      digest_interval_ns = digest;
      rtx_timeout_ns = 10_000;
    }
  in
  Robust.run ?invariants ~name (Robust.permutation cfg dims ~size) steps

let run () =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let detection = Sim.R2c2_sim.(detection_delay default_config topo) in
  (* Rejoin bound: the restarted node is detected and re-attached within
     one detection delay, announces its JOIN, pulls snapshots, and closes
     the gap through NACK replay. Completion additionally requires being
     sequence-caught-up with *every* origin at a digest instant, so while
     the other 510 flows are still finishing the rejoiner trails the live
     churn — measured 1.25 ms. Two retry periods plus ten digest rounds
     bound it with margin while staying a small fraction of the run. *)
  let rejoin_bound = detection + (2 * Sim.R2c2_sim.rejoin_retry_ns) + (10 * digest) in
  let crashed = 100 in
  let gray1 = (7, Robust.cable topo 7) in
  let gray2 = (200, Robust.cable topo 200) in
  let flaky (u, v) =
    Sim.R2c2_sim.Flaky
      { u; v; loss = Util.Units.fraction 0.25; spike = Util.Units.fraction 0.10; spike_ns = None }
  in
  let steps =
    [
      Sim.Scenario.fault ~at:20_000 (flaky gray1);
      Sim.Scenario.fault ~at:25_000 (flaky gray2);
      Sim.Scenario.fault ~at:30_000 (Crash crashed);
      Sim.Scenario.fault ~at:150_000 (Restart crashed);
      Sim.Scenario.fault ~at:400_000 (Unflaky (fst gray1, snd gray1));
      Sim.Scenario.fault ~at:400_000 (Unflaky (fst gray2, snd gray2));
    ]
  in
  let invariants =
    [
      Sim.Scenario.No_crashed_traversal;
      Sim.Scenario.Reconverge_within { max_ns = detection + interval + 1_000 };
      Sim.Scenario.View_staleness { max_ns = rejoin_bound; poll_ns = 25_000 };
    ]
  in
  let baseline = scenario ~name:"baseline" [] in
  let gray = scenario ~name:"graychaos" ~invariants steps in
  let replay = scenario ~name:"replay" ~invariants steps in
  let r = gray.res in
  let g = Robust.gates () in
  Robust.check_violations g [ baseline; gray; replay ];
  (* Exactly the two flows touching the crashed node die with it; every
     other flow rides out both the crash and the gray cables. *)
  let expected_aborted = Robust.flows_touching h crashed in
  if r.aborted_flows <> expected_aborted then
    Robust.fail g "aborted [%s], expected [%s]"
      (Robust.json_list string_of_int r.aborted_flows)
      (Robust.json_list string_of_int expected_aborted);
  if Robust.completed gray <> h - 2 then
    Robust.fail g "completed %d of %d expected" (Robust.completed gray) (h - 2);
  if r.flaky_lost = 0 then Robust.fail g "gray links lost nothing — injection inert";
  if r.quarantines < 1 then Robust.fail g "gray links never quarantined";
  if r.recoveries < 1 then Robust.fail g "quarantined links never recovered";
  (* The crash-restart must complete exactly one rejoin, within bound. *)
  let p99_rejoin = List.fold_left (fun acc (_, s, e) -> max acc (e - s)) 0 r.rejoins in
  (match r.rejoins with
  | [ (node, _, _) ] when node = crashed ->
      if p99_rejoin > rejoin_bound then
        Robust.fail g "rejoin took %d ns > bound %d ns" p99_rejoin rejoin_bound
  | l -> Robust.fail g "expected one rejoin of node %d, got %d" crashed (List.length l));
  let retention = Robust.retention ~baseline gray in
  if retention < 0.95 then Robust.fail g "goodput retention %.4f < 0.95" retention;
  (* Same seed, same timeline: the replay must come out the same. *)
  let deterministic = Robust.same_outcome gray replay in
  if not deterministic then Robust.fail g "same-seed replay diverged from first run";
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"graychaos\",\n\
      \  \"topology\": \"torus-8x8x8\",\n\
      \  \"flows\": %d,\n\
      \  \"flow_bytes\": %d,\n\
      \  \"crashed_node\": %d,\n\
      \  \"gray_links\": [[%d, %d], [%d, %d]],\n\
      \  \"gray_loss\": 0.25,\n\
      \  \"detection_delay_ns\": %d,\n\
      \  \"rejoin_bound_ns\": %d,\n\
      \  \"rejoin_p99_ns\": %d,\n\
      \  \"goodput_retention\": %.4f,\n\
      \  \"flaky_lost_packets\": %d,\n\
      \  \"quarantines\": %d,\n\
      \  \"probations\": %d,\n\
      \  \"link_recoveries\": %d,\n\
      \  \"joins_sent\": %d,\n\
      \  \"syncs\": %d,\n\
      \  \"retransmissions\": %d,\n\
      \  \"invariant_checks\": %d,\n\
      \  \"worst_view_staleness_ns\": %d,\n\
      \  \"violations\": [%s],\n\
      \  \"deterministic\": %b,\n\
      \  \"all_passed\": %b\n\
       }\n"
      h size crashed (fst gray1) (snd gray1) (fst gray2) (snd gray2) detection rejoin_bound
      p99_rejoin retention r.flaky_lost r.quarantines r.probations r.recoveries r.joins_sent
      r.syncs_sent r.retransmissions gray.report.checks gray.report.worst_staleness_ns
      (Robust.json_list (Printf.sprintf "%S") gray.report.violations)
      deterministic (Robust.passed g)
  in
  Robust.finish ~bench:"graychaos" ~file:"BENCH_graychaos.json" g json
    (Printf.sprintf
       "graychaos: crash-restart + 2 gray links survived (rejoin %d ns, retention %.3f)"
       p99_rejoin retention)
