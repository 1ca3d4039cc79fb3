(* One function per table/figure of the paper's evaluation (§2.2.1, §5).
   Each prints the same rows/series the paper reports, at a configurable
   scale. Absolute numbers differ from the paper's testbed; the shapes are
   what is being reproduced (see EXPERIMENTS.md). *)

let pr fmt = Printf.printf fmt

module U = Util.Units

let line () = pr "%s\n" (String.make 72 '-')

let heading title =
  line ();
  pr "%s\n" title;
  line ()

let percentiles = [ 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 ]

let short_max = 100_000 (* <100 KB = short flows *)
let long_min = 1_000_000 (* >1 MB = long flows *)

(* ---------------------------------------------------------------- fig2 *)

let fig2 ?(tries = 40) ?(seed = 7) () =
  heading
    "Fig 2 (table): saturation throughput (fraction of bisection capacity)\n\
     8-ary 2-cube, six traffic patterns x four routing algorithms";
  let topo = Topology.torus [| 8; 8 |] in
  let ctx = Routing.make topo in
  pr "%-18s %8s %8s %8s %8s\n" "workload" "RPS" "DOR" "VLB" "WLB";
  let row name flows =
    pr "%-18s" name;
    List.iter
      (fun proto ->
        pr " %8.2f" (U.to_float (Congestion.Channel_load.capacity_fraction ctx proto flows)))
      Routing.all_protocols;
    pr "\n"
  in
  List.iter
    (fun p -> row (Workload.Pattern.name p) (Workload.Pattern.flows topo p))
    [
      Workload.Pattern.Nearest_neighbor;
      Workload.Pattern.Uniform;
      Workload.Pattern.Bit_complement;
      Workload.Pattern.Transpose;
      Workload.Pattern.Tornado;
    ];
  pr "%-18s" "worst-case";
  List.iter
    (fun proto ->
      let _, v = Workload.Pattern.adversarial ctx proto ~tries ~seed in
      pr " %8.2f" (U.to_float v))
    Routing.all_protocols;
  pr "\n"

(* ---------------------------------------------------------------- fig7 *)

let pp_cdf_rows name_a xs_a name_b xs_b =
  pr "%-6s %14s %14s\n" "pct" name_a name_b;
  List.iter
    (fun p ->
      pr "p%-5.0f %14.3f %14.3f\n" p
        (Util.Stats.percentile xs_a p)
        (Util.Stats.percentile xs_b p))
    percentiles

let fig7 ?(flows = 300) ?(size = 2_000_000) ?(seed = 11) () =
  heading
    (Printf.sprintf
       "Fig 7: cross-validation, packet simulator vs fluid emulator\n\
        4x4 2D torus, 5 Gbps links, %d flows x %.1f MB, Poisson 1 ms" flows
       (float_of_int size /. 1e6));
  let topo = Topology.torus [| 4; 4 |] in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.fixed_size topo rng ~flows ~size ~mean_interarrival_ns:1_000_000.0 in
  let sim_cfg = { Sim.R2c2_sim.default_config with link_gbps = U.gbps 5.0; seed } in
  let sim = Sim.R2c2_sim.run sim_cfg topo specs in
  let emu_cfg = { Emu.Fluid.default_config with link_gbps = U.gbps 5.0; seed } in
  let emu = Emu.Fluid.run emu_cfg topo specs in
  let sim_tput = U.floats_of (Sim.Metrics.throughputs_gbps sim.Sim.R2c2_sim.metrics) in
  let emu_tput =
    Array.of_list
      (List.map
         (fun (f : Emu.Fluid.flow_result) -> U.to_float f.avg_rate_gbps)
         emu.Emu.Fluid.flows)
  in
  pr "(a) per-flow average throughput CDF (Gbps)\n";
  pp_cdf_rows "simulator" sim_tput "emulator" emu_tput;
  let sim_q = Array.map (fun b -> float_of_int b /. 1024.0) sim.Sim.R2c2_sim.max_queue in
  let emu_q =
    Array.map (fun b -> (b : U.bytes :> float) /. 1024.0) emu.Emu.Fluid.max_queue_bytes
  in
  pr "(b) per-queue maximum occupancy CDF (KB)\n";
  pp_cdf_rows "simulator" sim_q "emulator" emu_q

(* ---------------------------------------------------------------- fig8 *)

(* One recompute of a held water-filler refilled from scratch, as
   [Emu.Fluid], per-node control and the GA selector run it: clear it,
   refill it with [flows] keyed by slot, allocate. *)
let refill_allocate alloc flows =
  let module Inc = Congestion.Waterfill.Inc in
  Inc.clear alloc;
  Array.iteri
    (fun i (f : Congestion.Waterfill.flow) ->
      Inc.add_flow ~weight:f.weight ~priority:f.priority ?demand:f.demand alloc ~id:i f.row)
    flows;
  Inc.allocate alloc

let fig8 ?(flows = 10_000) ?(seed = 5) () =
  heading
    "Fig 8: 99th-pct CPU overhead of rate recomputation vs interval rho\n\
     512-node 3D torus trace, flow inter-arrival 1 us";
  let topo = Topology.torus [| 8; 8; 8 |] in
  let rng = Util.Rng.create seed in
  (* Sizes capped at 2 MB so the trace reaches a steady state within the
     replayed window; the tail beyond the cap only adds long-lived flows
     that every epoch would re-process identically. *)
  let specs =
    Workload.Flowgen.poisson_pareto ~max_size:2_000_000 topo rng ~flows
      ~mean_interarrival_ns:1_000.0
  in
  (* Departure times from a fluid run with the default rho, each paired
     with its flow's arrival by index. *)
  let fluid = Emu.Fluid.run { Emu.Fluid.default_config with seed } topo specs in
  let events =
    List.concat
      [
        List.mapi (fun i (s : Workload.Flowgen.spec) -> (s.arrival_ns, `A i)) specs;
        List.map
          (fun (f : Emu.Fluid.flow_result) ->
            (f.spec.Workload.Flowgen.arrival_ns + f.fct_ns, `D f.index))
          fluid.Emu.Fluid.flows;
      ]
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let rctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate (10.0 /. 8.0)) in
  let alloc = Congestion.Waterfill.Inc.create ~headroom:Topology.headroom ~capacities () in
  (* Every flow's row is looked up before timing: the paper precomputes
     link weights per {routing protocol, destination} pair (§4.2). *)
  let by_index =
    Array.of_list
      (List.mapi
         (fun id (s : Workload.Flowgen.spec) ->
           Congestion.Waterfill.flow ~id (Routing.fractions rctx Routing.Rps ~src:s.src ~dst:s.dst))
         specs)
  in
  let arrival = Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> s.arrival_ns) specs) in
  let horizon = List.fold_left (fun acc (t, _) -> max acc t) 0 events in
  pr "%-12s %10s %10s %12s %12s %8s\n" "rho" "median-ms" "p99-ms" "Xeon-med%" "Xeon-p99%"
    "epochs";
  List.iter
    (fun rho_ns ->
      (* Replay: at every epoch boundary allocate over the flows active then
         (batching skips flows that come and go within one epoch, §3.3.2). *)
      let times = ref [] in
      let live = Array.make (Array.length by_index) false in
      let next = ref rho_ns in
      List.iter
        (fun (t, ev) ->
          while t > !next && !next <= horizon do
            (* Batching only rate-limits flows older than one interval
               (§3.3.2): flows that come and go within an epoch are absorbed
               by the headroom and never considered. *)
            let cutoff = !next - rho_ns in
            let wf = ref [] in
            for i = Array.length by_index - 1 downto 0 do
              if live.(i) && arrival.(i) <= cutoff then wf := by_index.(i) :: !wf
            done;
            let wf = Array.of_list !wf in
            if Array.length wf > 0 then begin
              (* Best-of-3 after a GC flush removes collector and scheduler
                 noise from the wall-clock measurement (the paper's artifact
                 was C++). *)
              Gc.full_major ();
              let best = ref infinity in
              for _ = 1 to 3 do
                let t0 = Unix.gettimeofday () in
                refill_allocate alloc wf;
                let dt = Unix.gettimeofday () -. t0 in
                if dt < !best then best := dt
              done;
              times := !best :: !times
            end;
            next := !next + rho_ns
          done;
          match ev with `A i -> live.(i) <- true | `D i -> live.(i) <- false)
        events;
      let ts = Array.of_list (List.map (fun s -> s *. 1000.0) !times) in
      if Array.length ts = 0 then pr "%-12s (no epochs)\n" (Printf.sprintf "%dus" (rho_ns / 1000))
      else begin
        let med = Util.Stats.percentile ts 50.0 and p99 = Util.Stats.percentile ts 99.0 in
        let rho_ms = float_of_int rho_ns /. 1e6 in
        pr "%-12s %10.3f %10.3f %11.1f%% %11.1f%% %8d\n"
          (Printf.sprintf "%dus" (rho_ns / 1000))
          med p99
          (100.0 *. med /. rho_ms)
          (100.0 *. p99 /. rho_ms)
          (Array.length ts)
      end)
    [ 50_000; 100_000; 250_000; 500_000; 1_000_000 ];
  pr "(Atom-class core: multiply overhead by ~20x; see DESIGN.md substitutions)\n"

(* ---------------------------------------------------------------- fig9 *)

let fig9 () =
  heading
    "Fig 9: % of network capacity used by flow-event broadcasts\n\
     vs fraction of bytes carried by small (10 KB) flows; long flows 35 MB";
  let topos =
    [
      ("3D torus 8x8x8", Topology.torus [| 8; 8; 8 |]);
      ("3D mesh 8x8x8", Topology.mesh [| 8; 8; 8 |]);
      ("2D torus 32x16", Topology.torus [| 32; 16 |]);
    ]
  in
  pr "%-10s" "small-frac";
  List.iter (fun (n, _) -> pr " %16s" n) topos;
  pr "\n";
  List.iter
    (fun frac ->
      pr "%-10.2f" frac;
      List.iter
        (fun (_, topo) ->
          let ov =
            Broadcast.analytic_overhead topo ~frac_small_bytes:frac ~small_size:10_000
              ~large_size:35_000_000
          in
          pr " %15.2f%%" (100.0 *. ov))
        topos;
      pr "\n")
    [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 ]

(* ------------------------------------------------- fig10/11 shared run *)

type transport_runs = {
  r2c2_m : Sim.Metrics.t;
  r2c2_q : int array;
  tcp_m : Sim.Metrics.t;
  tcp_q : int array;
  pfq : Emu.Fluid.flow_result list;
}

let run_transports ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(tau_ns = 1_000.0) ?(seed = 21)
    ?(headroom = Topology.headroom) () =
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:tau_ns in
  let r2c2 = Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed; headroom } topo specs in
  let tcp = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
  let pfq = Emu.Fluid.run_pfq seed topo specs in
  ( specs,
    {
      r2c2_m = r2c2.Sim.R2c2_sim.metrics;
      r2c2_q = r2c2.Sim.R2c2_sim.max_queue;
      tcp_m = tcp.Sim.Tcp_sim.metrics;
      tcp_q = tcp.Sim.Tcp_sim.max_queue;
      pfq = pfq.Emu.Fluid.flows;
    } )

let pfq_fcts_us ?(min_size = 0) ?(max_size = max_int) pfq =
  Array.of_list
    (List.filter_map
       (fun (r : Emu.Fluid.flow_result) ->
         let sz = r.spec.Workload.Flowgen.size in
         if sz >= min_size && sz < max_size then Some (float_of_int r.fct_ns /. 1000.0) else None)
       pfq)

let pfq_tputs ?(min_size = 0) ?(max_size = max_int) pfq =
  Array.of_list
    (List.filter_map
       (fun (r : Emu.Fluid.flow_result) ->
         let sz = r.spec.Workload.Flowgen.size in
         if sz >= min_size && sz < max_size then Some (U.to_float r.avg_rate_gbps) else None)
       pfq)

let pp_cdf3 unit a b c =
  pr "%-6s %12s %12s %12s   (%s)\n" "pct" "TCP" "R2C2" "PFQ" unit;
  List.iter
    (fun p ->
      let v xs = if Array.length xs = 0 then nan else Util.Stats.percentile xs p in
      pr "p%-5.0f %12.2f %12.2f %12.2f\n" p (v a) (v b) (v c))
    percentiles

let fig10_11 ?dims ?flows ?tau_ns ?seed () =
  let specs, t = run_transports ?dims ?flows ?tau_ns ?seed () in
  ignore specs;
  heading "Fig 10: FCT CDF, short flows (<100 KB), tau = 1 us";
  pp_cdf3 "us"
    (Sim.Metrics.fcts_us ~max_size:short_max t.tcp_m)
    (Sim.Metrics.fcts_us ~max_size:short_max t.r2c2_m)
    (pfq_fcts_us ~max_size:short_max t.pfq);
  heading "Fig 11: average-throughput CDF, long flows (>1 MB), tau = 1 us";
  pp_cdf3 "Gbps"
    (U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min t.tcp_m))
    (U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min t.r2c2_m))
    (pfq_tputs ~min_size:long_min t.pfq)

(* ------------------------------------------------------- fig12/13/14 *)

let fig12_13_14 ?dims ?flows ?(taus = [ 100.0; 1_000.0; 10_000.0; 100_000.0 ]) ?seed () =
  let rows =
    List.map
      (fun tau ->
        let _, t = run_transports ?dims ?flows ~tau_ns:tau ?seed () in
        (tau, t))
      taus
  in
  let p99 xs = if Array.length xs = 0 then nan else Util.Stats.percentile xs 99.0 in
  let mean xs = Util.Stats.mean xs in
  heading "Fig 12: 99th-pct short-flow FCT, normalized against TCP (higher = better)";
  pr "%-10s %10s %10s\n" "tau" "R2C2" "PFQ";
  List.iter
    (fun (tau, t) ->
      let tcp = p99 (Sim.Metrics.fcts_us ~max_size:short_max t.tcp_m) in
      pr "%-10s %10.2f %10.2f\n"
        (Printf.sprintf "%gus" (tau /. 1000.0))
        (tcp /. p99 (Sim.Metrics.fcts_us ~max_size:short_max t.r2c2_m))
        (tcp /. p99 (pfq_fcts_us ~max_size:short_max t.pfq)))
    rows;
  heading "Fig 13: long-flow average throughput, normalized against TCP";
  pr "%-10s %10s %10s\n" "tau" "R2C2" "PFQ";
  List.iter
    (fun (tau, t) ->
      let tcp = mean (U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min t.tcp_m)) in
      let f x = if tcp > 0.0 then x /. tcp else nan in
      pr "%-10s %10.2f %10.2f\n"
        (Printf.sprintf "%gus" (tau /. 1000.0))
        (f (mean (U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min t.r2c2_m))))
        (f (mean (pfq_tputs ~min_size:long_min t.pfq))))
    rows;
  heading "Fig 14: max queue occupancy across all queues (R2C2), KB";
  pr "%-10s %10s %10s %14s\n" "tau" "median" "p99" "(TCP p99)";
  List.iter
    (fun (tau, t) ->
      let q = Array.map (fun b -> float_of_int b /. 1024.0) t.r2c2_q in
      let qt = Array.map (fun b -> float_of_int b /. 1024.0) t.tcp_q in
      pr "%-10s %10.2f %10.2f %14.2f\n"
        (Printf.sprintf "%gus" (tau /. 1000.0))
        (Util.Stats.percentile q 50.0) (Util.Stats.percentile q 99.0)
        (Util.Stats.percentile qt 99.0))
    rows

(* -------------------------------------------------------- fig15/16 *)

let fig15 ?(dims = [| 4; 4; 4 |]) ?(flows = 400) ?(seed = 31)
    ?(rhos = [ 50_000; 100_000; 250_000; 500_000; 1_000_000 ]) () =
  heading
    "Fig 15: |rate - ideal| / ideal vs recomputation interval rho (tau = 1 us)";
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:1_000.0 in
  pr "%-10s %10s %10s\n" "rho" "median" "p95";
  List.iter
    (fun rho ->
      (* Fixed 1 ms lifetime floor so every rho compares the same flows. *)
      let errs =
        Emu.Fluid.rate_error ~min_lifetime_ns:1_000_000 Emu.Fluid.default_config topo specs
          ~rho_ns:rho
      in
      pr "%-10s %9.1f%% %9.1f%%\n"
        (Printf.sprintf "%dus" (rho / 1000))
        (100.0 *. Util.Stats.percentile errs 50.0)
        (100.0 *. Util.Stats.percentile errs 95.0))
    rhos

let fig16 ?(dims = [| 4; 4; 4 |]) ?(flows = 400) ?(seed = 33)
    ?(taus = [ 100.0; 1_000.0; 10_000.0; 100_000.0 ]) () =
  heading "Fig 16: |rate - ideal| / ideal vs flow inter-arrival time (rho = 500 us)";
  let topo = Topology.torus dims in
  pr "%-10s %10s %10s\n" "tau" "median" "p95";
  List.iter
    (fun tau ->
      let rng = Util.Rng.create seed in
      let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:tau in
      let errs = Emu.Fluid.rate_error Emu.Fluid.default_config topo specs ~rho_ns:500_000 in
      pr "%-10s %9.1f%% %9.1f%%\n"
        (Printf.sprintf "%gus" (tau /. 1000.0))
        (100.0 *. Util.Stats.percentile errs 50.0)
        (100.0 *. Util.Stats.percentile errs 95.0))
    taus

(* ------------------------------------------------------------ fig17 *)

let fig17 ?(dims = [| 6; 6; 6 |]) ?(flows = 2500) ?(seed = 41)
    ?(headrooms = [ 0.0; 0.025; 0.05; 0.1; 0.2 ]) () =
  heading
    "Fig 17: sensitivity to headroom (tau = 1 us)\n\
     (a) 99th-pct FCT short flows, (b) mean throughput long flows";
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:1_000.0 in
  pr "%-10s %14s %16s\n" "headroom" "p99 FCT (us)" "long tput (Gbps)";
  List.iter
    (fun h ->
      let res =
        Sim.R2c2_sim.run
          { Sim.R2c2_sim.default_config with seed; headroom = U.fraction h }
          topo specs
      in
      let m = res.Sim.R2c2_sim.metrics in
      let fcts = Sim.Metrics.fcts_us ~max_size:short_max m in
      let tput = U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min m) in
      pr "%-10.3f %14.2f %16.2f\n" h
        (if Array.length fcts = 0 then nan else Util.Stats.percentile fcts 99.0)
        (Util.Stats.mean tput))
    headrooms

(* ------------------------------------------------------------ fig18 *)

let fig18 ?(dims = [| 4; 4; 4 |]) ?(loads = [ 0.125; 0.25; 0.5; 0.75; 1.0 ]) ?(seed = 51)
    ?(pop_size = 60) ?(generations = 15) () =
  heading
    "Fig 18: aggregate throughput of adaptive per-flow routing selection,\n\
     normalized against all-RPS / all-VLB / random (permutation long flows)";
  let topo = Topology.torus dims in
  let ctx = Routing.make topo in
  let selector = Genetic.Selector.make ctx ~link_gbps:Topology.link_gbps in
  pr "%-8s %12s %12s %12s %14s\n" "load" "vs RPS" "vs VLB" "vs Random" "adaptive Gbps";
  List.iter
    (fun load ->
      let rng = Util.Rng.create seed in
      let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load) in
      let flows =
        Array.of_list
          (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
      in
      if Array.length flows = 0 then pr "%-8.3f (no flows)\n" load
      else begin
        let rps = U.to_float (Genetic.Selector.uniform selector ~flows Routing.Rps) in
        let vlb = U.to_float (Genetic.Selector.uniform selector ~flows Routing.Vlb) in
        let rnd_assignment = Genetic.Selector.random_assignment selector rng ~flows in
        let rnd =
          U.to_float (Genetic.Selector.aggregate_throughput_gbps selector ~flows rnd_assignment)
        in
        let init = Array.make (Array.length flows) Routing.Rps in
        let _, adaptive =
          Genetic.Selector.select ~pop_size ~generations selector rng ~flows ~init
        in
        let adaptive = U.to_float adaptive in
        pr "%-8.3f %12.3f %12.3f %12.3f %14.1f\n" load (adaptive /. rps) (adaptive /. vlb)
          (adaptive /. rnd) adaptive
      end)
    loads

(* ------------------------------------------------------------ fig19 *)

let fig19 ?(dims = [| 8; 8; 8 |]) () =
  heading
    "Fig 19: control traffic per flow event, decentralized vs centralized\n\
     512-node 3D torus";
  let topo = Topology.torus dims in
  let dec = U.to_float (R2c2.Control_traffic.decentralized_event_bytes topo) in
  pr "decentralized: %.0f bytes/event (constant)\n" dec;
  pr "%-18s %14s %10s\n" "flows/server" "centralized B" "ratio";
  List.iter
    (fun n ->
      let c = U.to_float (R2c2.Control_traffic.centralized_event_bytes topo ~flows_per_server:n) in
      pr "%-18d %14.0f %9.1fx\n" n c (c /. dec))
    [ 1; 2; 4; 6; 8; 10 ]

(* ------------------------------------------------------------ ablations *)

(* Design-choice studies beyond the paper's figures; see DESIGN.md §5. *)

let ablation_control_plane ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(seed = 61) () =
  heading
    "Ablation A: control plane — global-epoch approximation vs the paper's\n\
     literal per-node computation (each sender water-fills over its own\n\
     broadcast-built view)";
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:1_000.0 in
  pr "%-14s %12s %12s %12s %12s %10s\n" "control" "p50 FCT us" "p99 FCT us" "q p99 KB"
    "recomputes" "wall s";
  List.iter
    (fun (name, control) ->
      let t0 = Unix.gettimeofday () in
      let res =
        Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed; control } topo specs
      in
      let wall = Unix.gettimeofday () -. t0 in
      let fcts = Sim.Metrics.fcts_us res.Sim.R2c2_sim.metrics in
      let q = Array.map (fun b -> float_of_int b /. 1024.0) res.Sim.R2c2_sim.max_queue in
      pr "%-14s %12.2f %12.2f %12.2f %12d %10.2f\n" name
        (Util.Stats.percentile fcts 50.0) (Util.Stats.percentile fcts 99.0)
        (Util.Stats.percentile q 99.0) res.Sim.R2c2_sim.recomputes wall)
    [ ("global-epoch", Sim.R2c2_sim.Global_epoch); ("per-node", Sim.R2c2_sim.Per_node) ]

let ablation_broadcast_trees ?(dims = [| 8; 8; 8 |]) () =
  heading
    "Ablation B: broadcast-tree load balancing — spreading each source's\n\
     broadcasts over k trees flattens the per-link control load";
  let topo = Topology.torus dims in
  pr "%-16s %14s %14s %10s\n" "trees/source" "max link load" "mean load" "max/mean";
  List.iter
    (fun k ->
      let b = Broadcast.make ~trees_per_source:k topo in
      let load = Array.make (Topology.link_count topo) 0.0 in
      for src = 0 to Topology.host_count topo - 1 do
        for tree = 0 to k - 1 do
          List.iter
            (fun (p, c) ->
              match Topology.find_link topo p c with
              | Some l -> load.(l) <- load.(l) +. (1.0 /. float_of_int k)
              | None -> assert false)
            (Broadcast.edges b ~src ~tree)
        done
      done;
      let mx = Array.fold_left max 0.0 load in
      let mean = Util.Stats.mean load in
      pr "%-16d %14.1f %14.1f %10.2f\n" k mx mean (mx /. mean))
    [ 1; 2; 4; 8 ]

let ablation_search ?(dims = [| 4; 4; 4 |]) ?(load = 0.5) ?(seed = 71) ?(budget = 1200) () =
  heading
    (Printf.sprintf
       "Ablation D: search heuristic for routing selection (SS3.4 considered\n\
        log-linear learning and simulated annealing before settling on a GA)\n\
        permutation flows, load %.2f, equal fitness-evaluation budget (%d)"
       load budget);
  let topo = Topology.torus dims in
  let ctx = Routing.make topo in
  let sel = Genetic.Selector.make ctx ~link_gbps:Topology.link_gbps in
  let rng0 = Util.Rng.create seed in
  let specs = Workload.Flowgen.permutation_long_flows topo rng0 ~load:(U.fraction load) in
  let flows =
    Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
  in
  let n = Array.length flows in
  let decode g = Array.map (fun c -> if c = 0 then Routing.Rps else Routing.Vlb) g in
  let problem =
    {
      Genetic.Ga.genes = n;
      choices = 2;
      fitness =
        (fun g -> U.to_float (Genetic.Selector.aggregate_throughput_gbps sel ~flows (decode g)));
    }
  in
  let init = Array.make n 0 in
  pr "%-22s %16s\n" "heuristic" "aggregate Gbps";
  let show name fit = pr "%-22s %16.1f\n" name fit in
  show "all-RPS baseline" (U.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps));
  show "all-VLB baseline" (U.to_float (Genetic.Selector.uniform sel ~flows Routing.Vlb));
  let pop = 40 in
  let _, ga =
    Genetic.Ga.optimize ~pop_size:pop ~generations:(budget / pop) ~patience:max_int
      (Util.Rng.create (seed + 1)) problem ~init
  in
  show "genetic algorithm" ga;
  let _, hc = Genetic.Ga.hill_climb ~iterations:budget (Util.Rng.create (seed + 2)) problem ~init in
  show "hill climbing" hc;
  let _, sa =
    Genetic.Ga.simulated_annealing ~iterations:budget (Util.Rng.create (seed + 3)) problem ~init
  in
  show "simulated annealing" sa;
  let _, rs = Genetic.Ga.random_search ~iterations:budget (Util.Rng.create (seed + 4)) problem in
  show "random search" rs;
  (* The production selector additionally seeds the uniform assignments, so
     it can never end below either baseline. *)
  let init_p = Array.make n Routing.Rps in
  let _, prod =
    Genetic.Selector.select ~pop_size:40 ~generations:(budget / 40) sel
      (Util.Rng.create (seed + 5)) ~flows ~init:init_p
  in
  show "GA + uniform seeding" (U.to_float prod)

let ablation_waterfill ?(flows = 800) ?(seed = 73) () =
  heading
    "Ablation E: water-filling implementations — the SS4.2 \"efficient\n\
     variant\" vs textbook progressive filling (identical results, see\n\
     property tests)";
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create seed in
  let h = Topology.host_count topo in
  let wf =
    Array.init flows (fun i ->
        let src = Util.Rng.int rng h in
        let dst = (src + 1 + Util.Rng.int rng (h - 1)) mod h in
        Congestion.Waterfill.flow ~id:i (Routing.fractions ctx Routing.Rps ~src ~dst))
  in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let time f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1000.0
  in
  let alloc = Congestion.Waterfill.Inc.create ~headroom:Topology.headroom ~capacities () in
  let fast = time (fun () -> refill_allocate alloc wf) in
  let slow =
    time (fun () ->
        Congestion.Waterfill.allocate_reference ~headroom:Topology.headroom ~capacities wf)
  in
  pr "%d flows on the 512-node torus:\n" flows;
  pr "  efficient variant: %8.3f ms\n" fast;
  pr "  reference        : %8.3f ms (%.1fx slower)\n" slow (slow /. fast)

let ablation_clos ?(seed = 79) () =
  heading
    "Ablation F (SS6): R2C2 atop a switched two-level folded Clos — broadcast\n\
     stays cheap at rack scale; congestion control works without multipath";
  (* 512 servers, 32-port switches: 32 leaves x 16 servers, 16 spines. *)
  let clos = Topology.clos ~leaves:32 ~spines:16 ~servers_per_leaf:16 in
  pr "topology: %d servers + %d switches, diameter %d\n" (Topology.host_count clos)
    (Topology.vertex_count clos - Topology.host_count clos)
    (Topology.diameter clos);
  pr "bytes per broadcast: %d (paper SS6: ~8.7 KB)\n" (Broadcast.bytes_per_broadcast clos);
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto clos rng ~flows:600 ~mean_interarrival_ns:1_000.0 in
  let res = Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed } clos specs in
  let fcts = Sim.Metrics.fcts_us res.Sim.R2c2_sim.metrics in
  let q = Array.map (fun b -> float_of_int b /. 1024.0) res.Sim.R2c2_sim.max_queue in
  pr "R2C2 on the Clos: %d/%d flows complete, FCT p50 %.1f us p99 %.1f us, q p99 %.1f KB\n"
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)
    (List.length specs) (Util.Stats.percentile fcts 50.0) (Util.Stats.percentile fcts 99.0)
    (Util.Stats.percentile q 99.0)

let ablation_live_reselection ?(dims = [| 4; 4; 4 |]) ?(load = 0.5) ?(seed = 83) () =
  heading
    "Ablation G: live SS3.4 routing reselection inside the packet simulator
     (long permutation flows; reselection every 300 us vs static RPS)";
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 4_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load))
  in
  pr "%-22s %12s %14s %12s
" "mode" "mean FCT us" "mean tput Gbps" "reroutes";
  List.iter
    (fun (name, interval) ->
      let cfg = { Sim.R2c2_sim.default_config with seed; reselect_interval_ns = interval } in
      let res = Sim.R2c2_sim.run cfg topo specs in
      let m = res.Sim.R2c2_sim.metrics in
      pr "%-22s %12.1f %14.2f %12d
" name
        (Util.Stats.mean (Sim.Metrics.fcts_us m))
        (Util.Stats.mean (U.floats_of (Sim.Metrics.throughputs_gbps m)))
        res.Sim.R2c2_sim.flows_rerouted)
    [ ("static all-RPS", None); ("adaptive (GA, 300us)", Some 300_000) ]

let ablation_link_speed ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(seed = 89) () =
  heading
    "Ablation H: link speed (SS2.1 projects 10-100 Gbps fabrics) — R2C2's
     probe-free control is rate-agnostic; queues stay in packets, not BDPs";
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows ~mean_interarrival_ns:1_000.0 in
  pr "%-10s %14s %14s %12s
" "link" "p99 FCT us" "long tput Gbps" "q p99 KB";
  List.iter
    (fun gbps ->
      let res =
        Sim.R2c2_sim.run
          { Sim.R2c2_sim.default_config with seed; link_gbps = U.gbps gbps }
          topo specs
      in
      let m = res.Sim.R2c2_sim.metrics in
      let fcts = Sim.Metrics.fcts_us ~max_size:short_max m in
      let q = Array.map (fun b -> float_of_int b /. 1024.0) res.Sim.R2c2_sim.max_queue in
      pr "%-10s %14.2f %14.2f %12.2f
"
        (Printf.sprintf "%.0fG" gbps)
        (Util.Stats.percentile fcts 99.0)
        (Util.Stats.mean (U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min m)))
        (Util.Stats.percentile q 99.0))
    [ 10.0; 40.0; 100.0 ]

let ablations () =
  ablation_control_plane ();
  ablation_broadcast_trees ();
  ablation_search ();
  ablation_waterfill ();
  ablation_clos ();
  ablation_live_reselection ();
  ablation_link_speed ()
