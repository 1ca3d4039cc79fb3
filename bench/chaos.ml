(* Chaos soak (writes BENCH_failure.json) --------------------------------
   The §3.2 failure story end to end on the paper's 8x8x8 torus: a
   permutation workload runs while cables and a node are killed mid-flight.
   Each scenario reports recovery times (failure -> first reconverged rate
   epoch), loss accounting and goodput retention against the unfailed
   baseline; the run exits non-zero if any event fails to reconverge, a
   flow is lost that should not be, the recovery bound (detection delay +
   one recompute interval) is exceeded, or goodput retention drops below
   90%. *)

let dims = [| 8; 8; 8 |]
let size = 600_000
let interval = 100_000

let scenario ~name steps =
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      recompute_interval_ns = interval;
      (* A rack RTT is a few microseconds; the conservative 50 us default
         timeout would dominate the post-failure tail latency. *)
      rtx_timeout_ns = 10_000;
    }
  in
  Robust.run ~name (Robust.permutation cfg dims ~size) steps

(* Each fault's recovery time, failure to reconverged epoch; -1 if never. *)
let recoveries (r : Robust.run) =
  List.map
    (fun (f : Sim.R2c2_sim.failure) ->
      if f.reconverge_ns < 0 then -1 else f.reconverge_ns - f.fail_ns)
    r.res.failures

(* Goodput over the makespan, counting only bytes that reached their
   destination as part of a completed flow. *)
let goodput_gbps (r : Robust.run) =
  let m = r.res.metrics in
  let bytes =
    List.fold_left
      (fun acc (f : Sim.Metrics.flow) -> if Sim.Metrics.complete m f then acc + f.size else acc)
      0 (Sim.Metrics.all m)
  in
  float_of_int (8 * bytes) /. float_of_int (Robust.makespan r)

let run () =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let detection = Sim.R2c2_sim.(detection_delay default_config topo) in
  (* Recovery bound: topology discovery (two broadcast depths) plus one
     rate-recompute interval, with 1 us of event-ordering slack. *)
  let bound = detection + interval + 1_000 in
  let kill_ns = 30_000 in
  let fail_link ~at v = Sim.Scenario.fault ~at (Fail_link (v, Robust.cable topo v)) in
  let baseline = scenario ~name:"baseline" [] in
  let link = scenario ~name:"link-kill" [ fail_link ~at:kill_ns 7 ] in
  let dead = 100 in
  let node = scenario ~name:"node-kill" [ Sim.Scenario.fault ~at:kill_ns (Fail_node dead) ] in
  let soak_kills = 5 in
  let soak =
    scenario ~name:"soak"
      (List.init soak_kills (fun i -> fail_link ~at:(kill_ns + (i * 40_000)) (17 + (i * 97)))
      @ [
          Sim.Scenario.fault
            ~at:(kill_ns + (soak_kills * 40_000))
            (Restore_link (17, Robust.cable topo 17));
        ])
  in
  let scenarios = [ baseline; link; node; soak ] in
  let g = Robust.gates () in
  Robust.check_violations g scenarios;
  (* Every failure event must reconverge, within the bound. *)
  List.iter
    (fun (r : Robust.run) ->
      List.iter2
        (fun (f : Sim.R2c2_sim.failure) rec_ns ->
          if rec_ns < 0 then Robust.fail g "%s: %s@%dns never reconverged" r.name f.kind f.fail_ns
          else if rec_ns > bound then
            Robust.fail g "%s: %s@%dns recovered in %dns > bound %dns" r.name f.kind f.fail_ns
              rec_ns bound)
        r.res.failures (recoveries r))
    scenarios;
  (* Link failures lose no flow; the node kill loses exactly the two flows
     touching the dead vertex. *)
  List.iter
    (fun (r : Robust.run) ->
      if Robust.completed r <> h || r.res.aborted_flows <> [] then
        Robust.fail g "%s lost flows" r.name)
    [ baseline; link; soak ];
  let node_expected = Robust.flows_touching h dead in
  if node.res.aborted_flows <> node_expected || Robust.completed node <> h - 2 then
    Robust.fail g "node-kill aborted [%s], expected [%s]"
      (Robust.json_list string_of_int node.res.aborted_flows)
      (Robust.json_list string_of_int node_expected);
  let retention = Robust.retention ~baseline in
  let min_retention =
    List.fold_left (fun acc r -> Float.min acc (retention r)) infinity [ link; node; soak ]
  in
  if min_retention < 0.90 then Robust.fail g "goodput retention %.3f < 0.90" min_retention;
  let p50, p95, pmax =
    Robust.p50_p95_max ~empty:(-1)
      (List.filter (fun r -> r >= 0) (List.concat_map recoveries scenarios))
  in
  let scenario_json (r : Robust.run) =
    let res = r.res in
    Printf.sprintf
      "    { \"name\": \"%s\", \"completed\": %d, \"aborted\": [%s], \"drops\": %d,\n\
      \      \"blackholes\": %d, \"blackholed_bytes\": %d, \"retransmissions\": %d,\n\
      \      \"tree_repairs\": %d, \"goodput_gbps\": %.2f, \"retention\": %.4f,\n\
      \      \"recovery_ns\": [%s] }" r.name (Robust.completed r)
      (Robust.json_list string_of_int res.aborted_flows)
      res.drops res.blackholes res.blackholed_bytes res.retransmissions res.tree_repairs
      (goodput_gbps r) (retention r)
      (Robust.json_list string_of_int (recoveries r))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"failure-recovery\",\n\
      \  \"topology\": \"torus-8x8x8\",\n\
      \  \"flows\": %d,\n\
      \  \"flow_bytes\": %d,\n\
      \  \"detection_delay_ns\": %d,\n\
      \  \"recompute_interval_ns\": %d,\n\
      \  \"recovery_bound_ns\": %d,\n\
      \  \"recovery_p50_ns\": %d,\n\
      \  \"recovery_p95_ns\": %d,\n\
      \  \"recovery_max_ns\": %d,\n\
      \  \"min_goodput_retention\": %.4f,\n\
      \  \"all_reconverged\": %b,\n\
      \  \"scenarios\": [\n%s\n  ]\n\
       }\n"
      h size detection interval bound p50 p95 pmax min_retention (Robust.passed g)
      (String.concat ",\n" (List.map scenario_json scenarios))
  in
  Robust.finish ~bench:"chaos" ~file:"BENCH_failure.json" g json
    (Printf.sprintf "chaos: all scenarios recovered (p95 %d ns, retention %.3f)" p95
       min_retention)
