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

type outcome = {
  sname : string;
  completed : int;
  aborted : int list;
  drops : int;
  blackholes : int;
  blackholed_bytes : int;
  retransmissions : int;
  tree_repairs : int;
  recoveries : (string * int * int) list;  (** kind, fail_ns, recovery_ns *)
  goodput_gbps : float;
  makespan_ns : int;
  series : (int * int) array;  (** 10 us goodput buckets *)
}

(* Payload bytes the run had delivered by [t_ns]. *)
let delivered_by o t_ns =
  Array.fold_left (fun acc (b, bytes) -> if b < t_ns then acc + bytes else acc) 0 o.series

(* Deterministic cable pick: vertex [v] and its first out-neighbor. *)
let cable topo v = fst (Topology.out_links topo v).(0)

let run_scenario ~size ~interval ~name events =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let shift = (h / 2) + 3 in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      recompute_interval_ns = interval;
      (* A rack RTT is a few microseconds; the conservative 50 us default
         timeout would dominate the post-failure tail latency. *)
      rtx_timeout_ns = 10_000;
      seed = 42;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + shift) mod h) ~size)
  done;
  List.iter (fun (ns, fault) -> Sim.R2c2_sim.inject_at t ~ns fault) events;
  let t0 = Unix.gettimeofday () in
  Sim.R2c2_sim.run_engine t;
  let wall = Unix.gettimeofday () -. t0 in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  (* Goodput over the makespan, counting only bytes that reached their
     destination as part of a completed flow. *)
  let delivered = ref 0 and makespan = ref 1 in
  List.iter
    (fun f ->
      if Sim.Metrics.complete r.metrics f then begin
        delivered := !delivered + f.Sim.Metrics.size;
        makespan := max !makespan f.Sim.Metrics.finish_ns
      end)
    (Sim.Metrics.all r.metrics);
  let goodput = float_of_int (8 * !delivered) /. float_of_int !makespan in
  if r.injected_payload <> r.delivered_payload + r.dropped_payload + r.blackholed_payload then
    failwith (name ^ ": payload bytes not conserved");
  Printf.printf
    "%-10s %3d flows done, %d aborted, %d blackholed pkts, %d rtx, %d repairs (%.1fs)\n%!"
    name
    (Sim.Metrics.completed_count r.metrics)
    (List.length r.aborted_flows) r.blackholes r.retransmissions r.tree_repairs wall;
  {
    sname = name;
    completed = Sim.Metrics.completed_count r.metrics;
    aborted = r.aborted_flows;
    drops = r.drops;
    blackholes = r.blackholes;
    blackholed_bytes = r.blackholed_bytes;
    retransmissions = r.retransmissions;
    tree_repairs = r.tree_repairs;
    recoveries =
      List.map
        (fun fr ->
          (fr.kind, fr.fail_ns, if fr.reconverge_ns < 0 then -1 else fr.reconverge_ns - fr.fail_ns))
        r.failures;
    goodput_gbps = goodput;
    makespan_ns = !makespan;
    series = Sim.Metrics.goodput_series r.metrics;
  }

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1))

let run () =
  let size = 600_000 in
  let interval = 100_000 in
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let shift = (h / 2) + 3 in
  let detection = Sim.R2c2_sim.(detection_delay default_config topo) in
  (* Recovery bound: topology discovery (two broadcast depths) plus one
     rate-recompute interval, with 1 us of event-ordering slack. *)
  let bound = detection + interval + 1_000 in
  let kill_ns = 30_000 in
  let baseline = run_scenario ~size ~interval ~name:"baseline" [] in
  let link =
    run_scenario ~size ~interval ~name:"link-kill"
      [ (kill_ns, Sim.R2c2_sim.Fail_link (7, cable topo 7)) ]
  in
  let dead = 100 in
  let node =
    run_scenario ~size ~interval ~name:"node-kill" [ (kill_ns, Sim.R2c2_sim.Fail_node dead) ]
  in
  let soak_kills = 5 in
  let soak_events =
    List.init soak_kills (fun i ->
        let v = 17 + (i * 97) in
        (kill_ns + (i * 40_000), Sim.R2c2_sim.Fail_link (v, cable topo v)))
  in
  let soak =
    let v = 17 in
    run_scenario ~size ~interval ~name:"soak"
      (soak_events
      @ [ (kill_ns + (soak_kills * 40_000), Sim.R2c2_sim.Restore_link (v, cable topo v)) ])
  in
  let scenarios = [ baseline; link; node; soak ] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* Every failure event must reconverge, within the bound. *)
  let all_recoveries =
    List.concat_map (fun o -> List.map (fun r -> (o.sname, r)) o.recoveries) scenarios
  in
  List.iter
    (fun (sname, (kind, at, rec_ns)) ->
      if rec_ns < 0 then fail "%s: %s@%dns never reconverged" sname kind at
      else if rec_ns > bound then
        fail "%s: %s@%dns recovered in %dns > bound %dns" sname kind at rec_ns bound)
    all_recoveries;
  (* Link failures lose no flow; the node kill loses exactly the two flows
     touching the dead vertex. *)
  if baseline.completed <> h || baseline.aborted <> [] then fail "baseline lost flows";
  if link.completed <> h || link.aborted <> [] then fail "link-kill lost flows";
  if soak.completed <> h || soak.aborted <> [] then fail "soak lost flows";
  let node_expected = List.sort Int.compare [ dead; (dead - shift + h) mod h ] in
  if node.aborted <> node_expected || node.completed <> h - 2 then
    fail "node-kill aborted %s, expected %s"
      (String.concat "," (List.map string_of_int node.aborted))
      (String.concat "," (List.map string_of_int node_expected));
  (* Goodput retention: payload delivered within the baseline's completion
     window, relative to the baseline. Byte-weighted, so it captures the
     dip around the failure without being dominated by a single straggler
     flow's tail. *)
  let base_window = delivered_by baseline baseline.makespan_ns in
  let retention o = float_of_int (delivered_by o baseline.makespan_ns) /. float_of_int base_window in
  let min_retention =
    List.fold_left (fun acc o -> Float.min acc (retention o)) infinity [ link; node; soak ]
  in
  if min_retention < 0.90 then fail "goodput retention %.3f < 0.90" min_retention;
  let recs =
    Array.of_list (List.filter (fun r -> r >= 0) (List.map (fun (_, (_, _, r)) -> r) all_recoveries))
  in
  let recs = if Array.length recs = 0 then [| -1 |] else recs in
  Array.sort Int.compare recs;
  let scenario_json o =
    Printf.sprintf
      "    { \"name\": \"%s\", \"completed\": %d, \"aborted\": [%s], \"drops\": %d,\n\
      \      \"blackholes\": %d, \"blackholed_bytes\": %d, \"retransmissions\": %d,\n\
      \      \"tree_repairs\": %d, \"goodput_gbps\": %.2f, \"retention\": %.4f,\n\
      \      \"recovery_ns\": [%s] }" o.sname o.completed
      (String.concat ", " (List.map string_of_int o.aborted))
      o.drops o.blackholes o.blackholed_bytes o.retransmissions o.tree_repairs o.goodput_gbps
      (if o.sname = "baseline" then 1.0 else retention o)
      (String.concat ", " (List.map (fun (_, _, r) -> string_of_int r) o.recoveries))
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
      h size detection interval bound (percentile recs 50.0) (percentile recs 95.0)
      (percentile recs 100.0) min_retention (!failures = [])
      (String.concat ",\n" (List.map scenario_json scenarios))
  in
  let oc = open_out "BENCH_failure.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "chaos: FAILED: %s\n") (List.rev !failures);
    exit 1
  end;
  Printf.printf "chaos: all scenarios recovered (p95 %d ns, retention %.3f)\n"
    (percentile recs 95.0) min_retention
