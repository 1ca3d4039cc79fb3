(* Overload-control bench (writes BENCH_overload.json) --------------------
   The overload robustness story end to end: a 4x4x4 torus carries a
   heavy-tailed background workload (class 3) when repeated 5x-capacity
   partition/aggregate incast volleys (class 0, fanout 30 into a host's 6
   ingress links) slam a fixed set of aggregators. With the overload
   controller armed — queue watermarks, strict-priority admission
   shedding, PAUSE backpressure and a waterfill class reserve — the
   highest class must keep >= 99% SLO attainment with a bounded p99.9
   while the background degrades smoothly (paced and shed, never
   corrupted: every offered byte is either delivered or accounted as
   shed). An unprotected run of the identical workload is reported for
   contrast, and a same-seed replay must come out the same. *)

let dims = [| 4; 4; 4 |]
let slo_ns = 1_000_000
let hi_fanout = 30 (* 5x the 6-link torus ingress of one aggregator *)

(* p99.9 bound: the SLO plus the worst queueing a protected volley may see
   while the controller converges (measured with margin). *)
let p999_bound_ns = 4 * slo_ns

let case ~protect ~name ~bg ~incast =
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      recompute_interval_ns = 50_000;
      queue_high_watermark = 25_000;
      queue_low_watermark = 6_000;
      overload_control = protect;
      seed = 42;
    }
  in
  let sim = Sim.R2c2_sim.create cfg (Topology.torus dims) in
  Sim.Metrics.set_slo (Sim.R2c2_sim.metrics sim) ~priority:0 ~bound_ns:slo_ns;
  let invariants =
    if protect then
      [
        Sim.Scenario.Slo_attainment { priority = 0; min_attainment = 0.99 };
        Sim.Scenario.Tail_latency { priority = 0; percentile = 99.9; max_ns = p999_bound_ns };
      ]
    else []
  in
  Robust.run ~invariants ~name sim
    [ Sim.Scenario.surge ~at:0 bg; Sim.Scenario.surge ~at:100_000 incast ]

(* A class's FCT percentile in us; 0 when the class completed no flow. *)
let pct (r : Robust.run) ~priority p =
  let m = r.res.metrics in
  if Sim.Metrics.class_completed m ~priority = 0 then 0.0
  else Sim.Metrics.class_percentile m ~priority p /. 1_000.0

let run () =
  (* One seeded workload: both arms and the replay offer it byte for byte. *)
  let topo = Topology.torus dims in
  let rng = Util.Rng.create 1234 in
  let bg =
    Workload.Flowgen.poisson_pareto ~priority:3 ~max_size:1_000_000 topo rng ~flows:500
      ~mean_interarrival_ns:3_000.0
  in
  let incast =
    Workload.Flowgen.partition_aggregate ~priority:0 topo rng ~aggregators:4 ~fanout:hi_fanout
      ~rounds:6 ~round_interval_ns:150_000
  in
  let unprot = case ~protect:false ~name:"unprotected" ~bg ~incast in
  let prot = case ~protect:true ~name:"protected" ~bg ~incast in
  let replay = case ~protect:true ~name:"replay" ~bg ~incast in
  let r = prot.res in
  let m = r.metrics in
  let hi_offered = List.length incast and bg_offered = List.length bg in
  let hi_completed = Sim.Metrics.class_completed m ~priority:0 in
  let bg_completed = Sim.Metrics.class_completed m ~priority:3 in
  let hi_attainment = Sim.Metrics.slo_attainment m ~priority:0 in
  let hi_p999_us = pct prot ~priority:0 99.9 in
  let g = Robust.gates () in
  Robust.check_violations g [ unprot; prot; replay ];
  if hi_attainment < 0.99 then Robust.fail g "class-0 SLO attainment %.4f < 0.99" hi_attainment;
  if hi_p999_us > float_of_int p999_bound_ns /. 1_000.0 then
    Robust.fail g "class-0 p99.9 %.0f us above the %d us bound" hi_p999_us
      (p999_bound_ns / 1_000);
  (* Class 0 is never shed: every offered incast flow must complete. *)
  if hi_completed <> hi_offered then
    Robust.fail g "class 0 completed %d of %d offered" hi_completed hi_offered;
  (* The machinery must actually engage at 5x load... *)
  if r.overload_epochs = 0 then Robust.fail g "no overloaded epochs — detection inert";
  if r.shed_flows = 0 then Robust.fail g "no background flows shed — admission inert";
  if r.pauses_sent = 0 || r.pauses_received = 0 then
    Robust.fail g "no PAUSE backpressure (sent %d, received %d)" r.pauses_sent
      r.pauses_received;
  (* ...and degrade the background smoothly, not collapse it: every flow
     not shed still finishes, and the shed load is fully accounted. *)
  if bg_completed + r.shed_flows <> bg_offered then
    Robust.fail g "background flows unaccounted: %d completed + %d shed <> %d offered"
      bg_completed r.shed_flows bg_offered;
  if r.shed_payload = 0 then Robust.fail g "shed flows carried no payload accounting";
  (* Same seed, same timeline: the replay must come out the same. *)
  let deterministic = Robust.same_outcome prot replay in
  if not deterministic then Robust.fail g "same-seed replay diverged";
  let overload_factor = float_of_int hi_fanout /. 6.0 in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"overload\",\n\
      \  \"topology\": \"torus-4x4x4\",\n\
      \  \"incast_fanout\": %d,\n\
      \  \"overload_factor\": %.1f,\n\
      \  \"slo_ns\": %d,\n\
      \  \"hi_offered\": %d,\n\
      \  \"hi_completed\": %d,\n\
      \  \"hi_slo_attainment\": %.4f,\n\
      \  \"hi_p99_us\": %.1f,\n\
      \  \"hi_p999_us\": %.1f,\n\
      \  \"hi_attainment_unprotected\": %.4f,\n\
      \  \"hi_p999_us_unprotected\": %.1f,\n\
      \  \"bg_offered\": %d,\n\
      \  \"bg_completed\": %d,\n\
      \  \"bg_p99_us\": %.1f,\n\
      \  \"shed_flows\": %d,\n\
      \  \"shed_payload_bytes\": %d,\n\
      \  \"pauses_sent\": %d,\n\
      \  \"pauses_received\": %d,\n\
      \  \"overload_epochs\": %d,\n\
      \  \"final_shed_floor\": %d,\n\
      \  \"invariant_checks\": %d,\n\
      \  \"makespan_ns\": %d,\n\
      \  \"violations\": [%s],\n\
      \  \"deterministic\": %b,\n\
      \  \"all_passed\": %b\n\
       }\n"
      hi_fanout overload_factor slo_ns hi_offered hi_completed hi_attainment
      (pct prot ~priority:0 99.0) hi_p999_us
      (Sim.Metrics.slo_attainment unprot.res.metrics ~priority:0)
      (pct unprot ~priority:0 99.9) bg_offered bg_completed (pct prot ~priority:3 99.0)
      r.shed_flows r.shed_payload r.pauses_sent r.pauses_received r.overload_epochs
      (Sim.R2c2_sim.shed_floor prot.sim) prot.report.checks (Robust.makespan prot)
      (Robust.json_list (Printf.sprintf "%S") prot.report.violations)
      deterministic (Robust.passed g)
  in
  Robust.finish ~bench:"overload" ~file:"BENCH_overload.json" g json
    (Printf.sprintf "overload: class 0 rode out %.0fx incast (attainment %.4f, p99.9 %.0f us)"
       overload_factor hi_attainment hi_p999_us)
