(* Tests for lib/emu: fluid emulation, cross-validation against the packet
   simulator (the Fig. 7 methodology), rate-error analysis, the PFQ upper
   bound, and output pins for the fluid engine. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

let torus44 = lazy (Topology.torus [| 4; 4 |])

let fluid_completes_all () =
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 3 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:150 ~mean_interarrival_ns:1_000.0 in
  let r = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  Alcotest.(check int) "all complete" 150 (List.length r.Emu.Fluid.flows);
  List.iter
    (fun (f : Emu.Fluid.flow_result) ->
      Alcotest.(check bool) "positive fct" true (f.fct_ns > 0);
      Alcotest.(check bool) "sane rate" true ((f.avg_rate_gbps : U.gbps :> float) > 0.0))
    r.Emu.Fluid.flows

let fluid_single_flow_rate () =
  let topo = Lazy.force torus44 in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 1; size = 10_000_000; weight = 1; priority = 0 } ]
  in
  let r = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  match r.Emu.Fluid.flows with
  | [ f ] ->
      (* A lone flow runs at line rate (the first epoch schedules it at
         95%, but it starts unthrottled). *)
      let rate = U.to_float f.avg_rate_gbps in
      Alcotest.(check bool) (Printf.sprintf "near line rate (%.2f)" rate) true (rate > 8.5)
  | _ -> Alcotest.fail "expected one flow"

let fluid_fair_sharing () =
  let topo = Lazy.force torus44 in
  let mk src = { Workload.Flowgen.arrival_ns = 0; src; dst = 0; size = 20_000_000; weight = 1; priority = 0 } in
  let r = Emu.Fluid.run Emu.Fluid.default_config topo [ mk 1; mk 2 ] in
  match r.Emu.Fluid.flows with
  | [ a; b ] ->
      let ra = U.to_float a.avg_rate_gbps and rb = U.to_float b.avg_rate_gbps in
      Alcotest.(check bool) (Printf.sprintf "fair (%.2f vs %.2f)" ra rb) true
        (abs_float (ra -. rb) < 1.5)
  | _ -> Alcotest.fail "expected two flows"

let fluid_deterministic () =
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 5 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:80 ~mean_interarrival_ns:1_000.0 in
  let r1 = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  let r2 = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  Alcotest.(check bool) "identical results" true (r1.Emu.Fluid.flows = r2.Emu.Fluid.flows)

let fluid_cross_validates_simulator () =
  (* The Fig. 7 claim: the two independent engines agree on the workload's
     throughput distribution. *)
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 7 in
  let specs = Workload.Flowgen.fixed_size topo rng ~flows:100 ~size:1_000_000 ~mean_interarrival_ns:100_000.0 in
  let sim = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let emu = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  let sim_med =
    Util.Stats.median (U.floats_of (Sim.Metrics.throughputs_gbps sim.Sim.R2c2_sim.metrics))
  in
  let emu_med =
    Util.Stats.median
      (Array.of_list
         (List.map (fun (f : Emu.Fluid.flow_result) -> U.to_float f.avg_rate_gbps) emu.Emu.Fluid.flows))
  in
  Alcotest.(check bool)
    (Printf.sprintf "medians within 15%% (sim %.2f, emu %.2f)" sim_med emu_med)
    true
    (abs_float (sim_med -. emu_med) /. Float.max sim_med emu_med < 0.15)

let fluid_queue_estimate_grows_under_burst () =
  let topo = Lazy.force torus44 in
  (* Many simultaneous flows into one node: loads exceed capacity until the
     first recompute, so the queue estimate must be positive. *)
  let specs =
    List.init 6 (fun i ->
        { Workload.Flowgen.arrival_ns = 0; src = i + 1; dst = 0; size = 5_000_000; weight = 1; priority = 0 })
  in
  let r = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  let peak = Array.fold_left max 0.0 (U.floats_of r.Emu.Fluid.max_queue_bytes) in
  Alcotest.(check bool) "queues grew" true (peak > 0.0)

let fluid_until_cuts_off () =
  let topo = Lazy.force torus44 in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 100_000_000; weight = 1; priority = 0 } ]
  in
  let r = Emu.Fluid.run ~until_ns:1_000 Emu.Fluid.default_config topo specs in
  Alcotest.(check int) "not done in 1 us" 0 (List.length r.Emu.Fluid.flows)

let fluid_vlb_protocol () =
  (* A custom protocol_of drives flows over VLB and still completes. *)
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 13 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:60 ~mean_interarrival_ns:1_000.0 in
  let r =
    Emu.Fluid.run ~protocol_of:(fun _ _ -> Routing.Vlb) Emu.Fluid.default_config topo specs
  in
  Alcotest.(check int) "all complete on VLB" 60 (List.length r.Emu.Fluid.flows)

let rate_error_zero_at_rho_zero () =
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 9 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:60 ~mean_interarrival_ns:1_000.0 in
  let errs = Emu.Fluid.rate_error Emu.Fluid.default_config topo specs ~rho_ns:0 in
  Alcotest.(check bool) "no error against itself" true
    (Array.for_all (fun e -> e < 1e-9) errs)

(* Results carry the flow's index, which pairs the two runs of
   [rate_error] even for flows that share arrival, source and
   destination. *)
let results_carry_the_index () =
  let topo = Lazy.force torus44 in
  let spec arrival_ns src dst size =
    { Workload.Flowgen.arrival_ns; src; dst; size; weight = 1; priority = 0 }
  in
  let specs =
    [ spec 0 0 5 100_000; spec 0 0 5 3_000_000; spec 1_000 1 6 50_000; spec 1_000 1 6 50_000 ]
  in
  let r = Emu.Fluid.run Emu.Fluid.default_config topo specs in
  Alcotest.(check (list int)) "every index once" [ 0; 1; 2; 3 ]
    (List.sort Int.compare (List.map (fun (f : Emu.Fluid.flow_result) -> f.index) r.flows));
  List.iter
    (fun (f : Emu.Fluid.flow_result) ->
      Alcotest.(check bool) (Printf.sprintf "flow %d: its spec" f.index) true
        (f.spec == List.nth specs f.index))
    r.flows;
  let errs =
    Emu.Fluid.rate_error ~min_lifetime_ns:0 Emu.Fluid.default_config topo specs ~rho_ns:0
  in
  Alcotest.(check int) "one error per flow" 4 (Array.length errs);
  Alcotest.(check bool) "each flow paired with itself" true (Array.for_all (fun e -> e = 0.0) errs)

let rate_error_grows_with_rho () =
  (* Long-lived flows so both intervals schedule them (the batching filter
     drops flows shorter than one interval). *)
  let topo = Lazy.force torus44 in
  let rng = Util.Rng.create 11 in
  let specs =
    Workload.Flowgen.fixed_size topo rng ~flows:40 ~size:3_000_000
      ~mean_interarrival_ns:100_000.0
  in
  let med rho =
    Util.Stats.median (Emu.Fluid.rate_error Emu.Fluid.default_config topo specs ~rho_ns:rho)
  in
  let small = med 100_000 and large = med 1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "error grows with rho (%.4f -> %.4f)" small large)
    true (small <= large +. 1e-6)

(* -- PFQ upper bound ----------------------------------------------------------- *)

let pfq_completes_all () =
  let topo = Lazy.force torus44 in
  let specs =
    Workload.Flowgen.poisson_pareto topo (Util.Rng.create 17) ~flows:150
      ~mean_interarrival_ns:1_000.0
  in
  let results = (Emu.Fluid.run_pfq 1 topo specs).Emu.Fluid.flows in
  Alcotest.(check int) "all flows complete" 150 (List.length results);
  List.iter
    (fun (r : Emu.Fluid.flow_result) ->
      Alcotest.(check bool) "positive fct" true (r.fct_ns > 0);
      Alcotest.(check bool) "positive throughput" true ((r.avg_rate_gbps : U.gbps :> float) > 0.0))
    results

let pfq_single_flow_multipath_beats_line_rate () =
  (* The ideal baseline can use several paths at once: a lone flow gets
     more than one link's capacity. *)
  let topo = Lazy.force torus44 in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 10_000_000; weight = 1; priority = 0 } ]
  in
  match (Emu.Fluid.run_pfq 1 topo specs).Emu.Fluid.flows with
  | [ r ] ->
      let t = U.to_float r.avg_rate_gbps in
      Alcotest.(check bool) (Printf.sprintf "multipath > 10G (got %.1f)" t) true (t > 10.0)
  | _ -> Alcotest.fail "expected one result"

let pfq_mean_fct_not_worse_than_r2c2 () =
  (* PFQ is the idealized upper bound: on the same workload its mean FCT
     must not exceed R2C2's by any meaningful margin. *)
  let topo = Lazy.force torus44 in
  let specs =
    Workload.Flowgen.poisson_pareto topo (Util.Rng.create 19) ~flows:200
      ~mean_interarrival_ns:1_000.0
  in
  let pfq = (Emu.Fluid.run_pfq 1 topo specs).Emu.Fluid.flows in
  let r2c2 = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  let pfq_mean =
    Util.Stats.mean
      (Array.of_list
         (List.map (fun (r : Emu.Fluid.flow_result) -> float_of_int r.fct_ns /. 1000.0) pfq))
  in
  let r2c2_mean = Util.Stats.mean (Sim.Metrics.fcts_us r2c2.Sim.R2c2_sim.metrics) in
  Alcotest.(check bool)
    (Printf.sprintf "pfq (%.1f us) <= r2c2 (%.1f us) * 1.1" pfq_mean r2c2_mean)
    true
    (pfq_mean <= r2c2_mean *. 1.1)

let pfq_identical_flows_fair () =
  (* Symmetric sources: (2,0) and (0,2) are both two hops from (0,0) with
     congruent shortest-path sets, so path-level max-min must treat them
     equally. *)
  let topo = Lazy.force torus44 in
  let mk src = { Workload.Flowgen.arrival_ns = 0; src; dst = 0; size = 10_000_000; weight = 1; priority = 0 } in
  match (Emu.Fluid.run_pfq 1 topo [ mk 2; mk 8 ]).Emu.Fluid.flows with
  | [ a; b ] ->
      let ta = U.to_float a.avg_rate_gbps and tb = U.to_float b.avg_rate_gbps in
      Alcotest.(check bool) (Printf.sprintf "fair (%.2f vs %.2f)" ta tb) true
        (abs_float (ta -. tb) < 1.0)
  | _ -> Alcotest.fail "expected two results"

let pfq_until_cuts_off () =
  let topo = Lazy.force torus44 in
  let specs =
    [ { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 100_000_000; weight = 1; priority = 0 } ]
  in
  let r = Emu.Fluid.run_pfq ~until_ns:1_000 1 topo specs in
  Alcotest.(check int) "giant flow not done in 1 us" 0 (List.length r.Emu.Fluid.flows)

(* -- output pins ------------------------------------------------------------- *)

(* MD5 over every finished flow's identity, FCT and average-rate bits, in
   result order. *)
let flows_digest (flows : Emu.Fluid.flow_result list) =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun (f : Emu.Fluid.flow_result) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d->%d size=%d fct=%d rate=%Lx\n" f.spec.arrival_ns f.spec.src
           f.spec.dst f.spec.size f.fct_ns
           (Int64.bits_of_float (U.to_float f.avg_rate_gbps))))
    flows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fluid_engine_pinned () =
  (* Every R2C2 fluid run and every PFQ run goes through one event loop;
     these pins hold its output to the bit on a 4x4x4 Pareto workload, for
     the every-event ideal, the default rho and the PFQ bound. Seed 1 is a
     draw on which summing a PFQ flow's sub-flow rates first to last moves
     an FCT, so the PFQ pin also holds the summation order. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let specs =
    Workload.Flowgen.poisson_pareto topo (Util.Rng.create 1) ~flows:400
      ~mean_interarrival_ns:1_000.0
  in
  let fluid rho =
    (Emu.Fluid.run { Emu.Fluid.default_config with recompute_interval_ns = rho } topo specs)
      .Emu.Fluid.flows
  in
  let ideal = fluid 0 and batched = fluid Emu.Fluid.default_config.recompute_interval_ns in
  let pfq = (Emu.Fluid.run_pfq 1 topo specs).Emu.Fluid.flows in
  List.iter
    (fun (name, flows) -> Alcotest.(check int) (name ^ ": all complete") 400 (List.length flows))
    [ ("rho 0", ideal); ("default rho", batched); ("PFQ", pfq) ];
  Alcotest.(check string) "rho 0" "6b098fd250bc0c5a9f1e4440b97bcf20" (flows_digest ideal);
  Alcotest.(check string) "default rho" "c3a71e425e5cb9466347c3b677a3e2ae" (flows_digest batched);
  Alcotest.(check string) "PFQ" "6523dc5a0fa81cc6dc180cd57c00d35c" (flows_digest pfq)

let suites =
  [
    ( "emu.fluid",
      [
        tc "completes all flows" fluid_completes_all;
        tc "single flow near line rate" fluid_single_flow_rate;
        tc "fair sharing of a bottleneck" fluid_fair_sharing;
        tc "deterministic" fluid_deterministic;
        tc "cross-validates the packet simulator (Fig 7)" fluid_cross_validates_simulator;
        tc "queue estimate grows under burst" fluid_queue_estimate_grows_under_burst;
        tc "until_ns cuts off" fluid_until_cuts_off;
        tc "VLB protocol end to end" fluid_vlb_protocol;
      ] );
    ( "emu.rate_error",
      [
        tc "zero against itself" rate_error_zero_at_rho_zero;
        tc "results carry the flow's index" results_carry_the_index;
        tc "grows with rho (Fig 15)" rate_error_grows_with_rho;
      ] );
    ( "sim.pfq",
      [
        tc "completes all flows" pfq_completes_all;
        tc "multipath beats line rate" pfq_single_flow_multipath_beats_line_rate;
        tc "upper bound vs r2c2" pfq_mean_fct_not_worse_than_r2c2;
        tc "identical flows fair" pfq_identical_flows_fair;
        tc "until_ns cuts off" pfq_until_cuts_off;
      ] );
    ("emu.pins", [ tc "fluid engine output pinned (rho 0, default rho, PFQ)" fluid_engine_pinned ]);
  ]
