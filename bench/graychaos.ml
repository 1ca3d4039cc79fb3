(* Gray-failure chaos bench (writes BENCH_graychaos.json) -----------------
   The PR 7 robustness story end to end on the paper's 8x8x8 torus: a
   permutation workload runs while one node crash-restarts (losing all
   soft state and rejoining cold through the JOIN / snapshot-request
   protocol) and two cables turn gray — intermittently lossy at a rate
   the health estimator must notice and quarantine. The whole timeline is
   a {!Sim.Scenario} with every invariant monitor armed; the run exits
   non-zero if a monitor fires, goodput retention against the unfailed
   baseline drops below 95%, the rejoin takes longer than the bound, or
   two same-seed runs differ byte for byte. *)

let dims = [| 8; 8; 8 |]

type outcome = {
  completed : int;
  aborted : int list;
  flaky_lost : int;
  quarantines : int;
  probations : int;
  recoveries : int;
  joins_sent : int;
  rejoins : (int * int * int) list;
  retransmissions : int;
  syncs : int;
  violations : string list;
  checks : int;
  worst_staleness_ns : int;
  makespan_ns : int;
  series : (int * int) array;  (** 10 us goodput buckets *)
  snapshot : string;  (** byte-exact digest for the determinism check *)
}

let delivered_by o t_ns =
  Array.fold_left (fun acc (b, bytes) -> if b < t_ns then acc + bytes else acc) 0 o.series

(* Deterministic cable pick: vertex [v] and its first out-neighbor. *)
let cable topo v = fst (Topology.out_links topo v).(0)

let mk_sim ~size ~interval =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  (* Global-epoch control at the paper's 512-node scale (a per-node
     waterfill for all 512 views every rate epoch is minutes of wall
     clock; the Per_node rejoin path runs at test scale in
     test_robustness.ml). Reliable broadcast is on: the crash-restart
     rejoin protocol rides the digest / NACK / replay machinery. *)
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      reliable_bcast = true;
      recompute_interval_ns = interval;
      digest_interval_ns = 50_000;
      rtx_timeout_ns = 10_000;
      seed = 42;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + (h / 2) + 3) mod h) ~size)
  done;
  t

let run_scenario ~size ~interval ~name ~invariants steps =
  let t = mk_sim ~size ~interval in
  let violations = ref [] in
  let t0 = Unix.gettimeofday () in
  let report =
    Sim.Scenario.run ~on_violation:(fun m -> violations := m :: !violations) ~invariants t
      steps
  in
  let wall = Unix.gettimeofday () -. t0 in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  if r.injected_payload <> r.delivered_payload + r.dropped_payload + r.blackholed_payload
  then failwith (name ^ ": payload bytes not conserved");
  let makespan = ref 1 in
  List.iter
    (fun f ->
      if Sim.Metrics.complete r.metrics f then makespan := max !makespan f.Sim.Metrics.finish_ns)
    (Sim.Metrics.all r.metrics);
  let buf = Buffer.create 65536 in
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
  Printf.printf
    "%-10s %3d flows done, %d gray losses, %d quarantines, %d rejoins, %d rtx (%.1fs)\n%!"
    name
    (Sim.Metrics.completed_count r.metrics)
    r.flaky_lost r.quarantines (List.length r.rejoins) r.retransmissions wall;
  {
    completed = Sim.Metrics.completed_count r.metrics;
    aborted = r.aborted_flows;
    flaky_lost = r.flaky_lost;
    quarantines = r.quarantines;
    probations = r.probations;
    recoveries = r.recoveries;
    joins_sent = r.joins_sent;
    rejoins = r.rejoins;
    retransmissions = r.retransmissions;
    syncs = r.syncs_sent;
    violations = List.rev !violations;
    checks = report.Sim.Scenario.checks;
    worst_staleness_ns = report.Sim.Scenario.worst_staleness_ns;
    makespan_ns = !makespan;
    series = Sim.Metrics.goodput_series r.metrics;
    snapshot = Buffer.contents buf;
  }

let run () =
  let size = 600_000 in
  let interval = 100_000 in
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let shift = (h / 2) + 3 in
  let detection = Sim.R2c2_sim.(detection_delay default_config topo) in
  (* Rejoin bound: the restarted node is detected and re-attached within
     one detection delay, announces its JOIN, pulls snapshots, and closes
     the gap through NACK replay. Completion additionally requires being
     sequence-caught-up with *every* origin at a digest instant, so while
     the other 510 flows are still finishing the rejoiner trails the live
     churn — measured 1.25 ms. Two retry periods plus ten digest rounds
     bound it with margin while staying a small fraction of the run. *)
  let digest = 50_000 in
  let rejoin_bound =
    detection + (2 * Sim.R2c2_sim.rejoin_retry_ns) + (10 * digest)
  in
  let crashed = 100 in
  let gray1 = (7, cable topo 7) in
  let gray2 = (200, cable topo 200) in
  let flaky (u, v) =
    Sim.R2c2_sim.Flaky
      {
        u;
        v;
        loss = Util.Units.fraction 0.25;
        spike = Util.Units.fraction 0.10;
        spike_ns = None;
      }
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
      Sim.Scenario.Byte_conservation;
      Sim.Scenario.No_crashed_traversal;
      Sim.Scenario.Reconverge_within { max_ns = detection + interval + 1_000 };
      Sim.Scenario.View_staleness { max_ns = rejoin_bound; poll_ns = 25_000 };
    ]
  in
  let baseline = run_scenario ~size ~interval ~name:"baseline" ~invariants:[] [] in
  let gray = run_scenario ~size ~interval ~name:"graychaos" ~invariants steps in
  let gray2run = run_scenario ~size ~interval ~name:"replay" ~invariants steps in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter (fun v -> fail "invariant violated: %s" v) gray.violations;
  if gray.checks = 0 then fail "invariant monitors never evaluated";
  (* Exactly the two flows touching the crashed node die with it; every
     other flow rides out both the crash and the gray cables. *)
  let expected_aborted = List.sort Int.compare [ crashed; (crashed - shift + h) mod h ] in
  if gray.aborted <> expected_aborted then
    fail "aborted %s, expected %s"
      (String.concat "," (List.map string_of_int gray.aborted))
      (String.concat "," (List.map string_of_int expected_aborted));
  if gray.completed <> h - 2 then fail "completed %d of %d expected" gray.completed (h - 2);
  if gray.flaky_lost = 0 then fail "gray links lost nothing — injection inert";
  if gray.quarantines < 1 then fail "gray links never quarantined";
  if gray.recoveries < 1 then fail "quarantined links never recovered";
  (* The crash-restart must complete exactly one rejoin, within bound. *)
  let rejoin_times = List.map (fun (_, s, e) -> e - s) gray.rejoins in
  let p99_rejoin = List.fold_left max 0 rejoin_times in
  (match gray.rejoins with
  | [ (node, _, _) ] when node = crashed ->
      if p99_rejoin > rejoin_bound then
        fail "rejoin took %d ns > bound %d ns" p99_rejoin rejoin_bound
  | l -> fail "expected one rejoin of node %d, got %d" crashed (List.length l));
  (* Goodput retention: payload delivered within the baseline's completion
     window, relative to the baseline (byte-weighted, so it captures the
     dip around the faults without being dominated by one straggler). *)
  let base_window = delivered_by baseline baseline.makespan_ns in
  let retention =
    float_of_int (delivered_by gray baseline.makespan_ns) /. float_of_int base_window
  in
  if retention < 0.95 then fail "goodput retention %.4f < 0.95" retention;
  (* Same seed, same timeline: the replay must be byte-identical. *)
  if gray.snapshot <> gray2run.snapshot then fail "same-seed replay diverged from first run";
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
      p99_rejoin retention gray.flaky_lost gray.quarantines gray.probations gray.recoveries
      gray.joins_sent gray.syncs gray.retransmissions gray.checks gray.worst_staleness_ns
      (String.concat ", " (List.map (Printf.sprintf "%S") gray.violations))
      (gray.snapshot = gray2run.snapshot)
      (!failures = [])
  in
  let oc = open_out "BENCH_graychaos.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "graychaos: FAILED: %s\n") (List.rev !failures);
    exit 1
  end;
  Printf.printf "graychaos: crash-restart + 2 gray links survived (rejoin %d ns, retention %.3f)\n"
    p99_rejoin retention
