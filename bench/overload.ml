(* Overload-control bench (writes BENCH_overload.json) --------------------
   The PR 9 robustness story end to end: a 4x4x4 torus carries a
   heavy-tailed background workload (class 3) when repeated 5x-capacity
   partition/aggregate incast volleys (class 0, fanout 30 into a host's 6
   ingress links) slam a fixed set of aggregators. With the overload
   controller armed — queue watermarks, strict-priority admission
   shedding, PAUSE backpressure and a waterfill class reserve — the
   highest class must keep >= 99% SLO attainment with a bounded p99.9
   while the background degrades smoothly (paced and shed, never
   corrupted: every offered byte is either delivered or accounted as
   shed). An unprotected run of the identical workload is reported for
   contrast, and a same-seed replay must be byte-identical. *)

let dims = [| 4; 4; 4 |]
let slo_ns = 1_000_000
let hi_fanout = 30 (* 5x the 6-link torus ingress of one aggregator *)

type outcome = {
  hi_offered : int;
  hi_completed : int;
  hi_attainment : float;
  hi_p99_us : float;
  hi_p999_us : float;
  bg_offered : int;
  bg_completed : int;
  bg_p99_us : float;
  shed_flows : int;
  shed_payload : int;
  pauses_sent : int;
  pauses_received : int;
  overload_epochs : int;
  shed_floor : int;
  violations : string list;
  checks : int;
  makespan_ns : int;
  snapshot : string;  (** byte-exact digest for the determinism check *)
}

let run_case ~protect ~p999_bound_ns ~name =
  let topo = Topology.torus dims in
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
  let t = Sim.R2c2_sim.create cfg topo in
  Sim.Metrics.set_slo (Sim.R2c2_sim.metrics t) ~priority:0 ~bound_ns:slo_ns;
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:50_000;
  (* A fresh same-seed RNG per case: both arms and the replay offer the
     byte-identical workload. *)
  let rng = Util.Rng.create 1234 in
  let bg =
    Workload.Flowgen.poisson_pareto ~priority:3 ~max_size:1_000_000 topo rng ~flows:500
      ~mean_interarrival_ns:3_000.0
  in
  let incast =
    Workload.Flowgen.partition_aggregate ~priority:0 topo rng ~aggregators:4 ~fanout:hi_fanout
      ~rounds:6 ~round_interval_ns:150_000
  in
  let steps =
    [ Sim.Scenario.surge ~at:0 bg; Sim.Scenario.surge ~at:100_000 incast ]
  in
  let invariants =
    Sim.Scenario.Byte_conservation
    ::
    (if protect then
       [
         Sim.Scenario.Slo_attainment { priority = 0; min_attainment = 0.99 };
         Sim.Scenario.Tail_latency
           { priority = 0; percentile = 99.9; max_ns = p999_bound_ns };
       ]
     else [])
  in
  let violations = ref [] in
  let t0 = Unix.gettimeofday () in
  let report =
    Sim.Scenario.run
      ~on_violation:(fun m -> violations := m :: !violations)
      ~invariants t steps
  in
  let wall = Unix.gettimeofday () -. t0 in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  let m = r.metrics in
  let pct ~priority p =
    if Sim.Metrics.class_completed m ~priority = 0 then 0.0
    else Sim.Metrics.class_percentile m ~priority p /. 1_000.0
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (f : Sim.Metrics.flow) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d c%d %d->%d del=%d fin=%d\n" f.id f.priority f.src f.dst
           f.delivered f.finish_ns))
    (Sim.Metrics.all m);
  Buffer.add_string buf
    (Printf.sprintf "shed=%d/%dB pauses=%d/%d epochs=%d floor=%d inj=%d del=%d\n"
       r.shed_flows r.shed_payload r.pauses_sent r.pauses_received r.overload_epochs
       (Sim.R2c2_sim.shed_floor t) r.injected_payload r.delivered_payload);
  let makespan = ref 1 in
  List.iter
    (fun f ->
      if Sim.Metrics.complete m f then makespan := max !makespan f.Sim.Metrics.finish_ns)
    (Sim.Metrics.all m);
  Printf.printf
    "%-12s class0 %d/%d att=%.4f p99.9=%.0fus | shed %d pauses %d epochs %d (%.1fs)\n%!"
    name
    (Sim.Metrics.class_completed m ~priority:0)
    (List.length incast)
    (Sim.Metrics.slo_attainment m ~priority:0)
    (pct ~priority:0 99.9) r.shed_flows r.pauses_sent r.overload_epochs wall;
  {
    hi_offered = List.length incast;
    hi_completed = Sim.Metrics.class_completed m ~priority:0;
    hi_attainment = Sim.Metrics.slo_attainment m ~priority:0;
    hi_p99_us = pct ~priority:0 99.0;
    hi_p999_us = pct ~priority:0 99.9;
    bg_offered = List.length bg;
    bg_completed = Sim.Metrics.class_completed m ~priority:3;
    bg_p99_us = pct ~priority:3 99.0;
    shed_flows = r.shed_flows;
    shed_payload = r.shed_payload;
    pauses_sent = r.pauses_sent;
    pauses_received = r.pauses_received;
    overload_epochs = r.overload_epochs;
    shed_floor = Sim.R2c2_sim.shed_floor t;
    violations = List.rev !violations;
    checks = report.Sim.Scenario.checks;
    makespan_ns = !makespan;
    snapshot = Buffer.contents buf;
  }

let run () =
  (* p99.9 bound: the SLO plus the worst queueing a protected volley may
     see while the controller converges (measured with margin). *)
  let p999_bound_ns = 4 * slo_ns in
  let unprot = run_case ~protect:false ~p999_bound_ns ~name:"unprotected" in
  let prot = run_case ~protect:true ~p999_bound_ns ~name:"protected" in
  let replay = run_case ~protect:true ~p999_bound_ns ~name:"replay" in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter (fun v -> fail "invariant violated: %s" v) prot.violations;
  if prot.checks = 0 then fail "invariant monitors never evaluated";
  if prot.hi_attainment < 0.99 then
    fail "class-0 SLO attainment %.4f < 0.99" prot.hi_attainment;
  if prot.hi_p999_us > float_of_int p999_bound_ns /. 1_000.0 then
    fail "class-0 p99.9 %.0f us above the %d us bound" prot.hi_p999_us
      (p999_bound_ns / 1_000);
  (* Class 0 is never shed: every offered incast flow must complete. *)
  if prot.hi_completed <> prot.hi_offered then
    fail "class 0 completed %d of %d offered" prot.hi_completed prot.hi_offered;
  (* The machinery must actually engage at 5x load... *)
  if prot.overload_epochs = 0 then fail "no overloaded epochs — detection inert";
  if prot.shed_flows = 0 then fail "no background flows shed — admission inert";
  if prot.pauses_sent = 0 || prot.pauses_received = 0 then
    fail "no PAUSE backpressure (sent %d, received %d)" prot.pauses_sent
      prot.pauses_received;
  (* ...and degrade the background smoothly, not collapse it: every flow
     not shed still finishes, and the shed load is fully accounted. *)
  if prot.bg_completed + prot.shed_flows <> prot.bg_offered then
    fail "background flows unaccounted: %d completed + %d shed <> %d offered"
      prot.bg_completed prot.shed_flows prot.bg_offered;
  if prot.shed_payload = 0 then fail "shed flows carried no payload accounting";
  (* Same seed, same timeline: the replay must be byte-identical. *)
  if prot.snapshot <> replay.snapshot then fail "same-seed replay diverged";
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
      hi_fanout
      (float_of_int hi_fanout /. 6.0)
      slo_ns prot.hi_offered prot.hi_completed prot.hi_attainment prot.hi_p99_us
      prot.hi_p999_us unprot.hi_attainment unprot.hi_p999_us prot.bg_offered
      prot.bg_completed prot.bg_p99_us prot.shed_flows prot.shed_payload prot.pauses_sent
      prot.pauses_received prot.overload_epochs prot.shed_floor prot.checks
      prot.makespan_ns
      (String.concat ", " (List.map (Printf.sprintf "%S") prot.violations))
      (prot.snapshot = replay.snapshot)
      (!failures = [])
  in
  let oc = open_out "BENCH_overload.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "overload: FAILED: %s\n") (List.rev !failures);
    exit 1
  end;
  Printf.printf
    "overload: class 0 rode out %.0fx incast (attainment %.4f, p99.9 %.0f us)\n"
    (float_of_int hi_fanout /. 6.0)
    prot.hi_attainment prot.hi_p999_us
