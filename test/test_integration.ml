(* Cross-library integration tests: whole-stack scenarios on torus, mesh
   and Clos fabrics, failure injection, and end-to-end invariants. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

let specs_on topo seed n tau =
  Workload.Flowgen.poisson_pareto topo (Util.Rng.create seed) ~flows:n ~mean_interarrival_ns:tau

(* Flow conservation of routing fractions must hold on a Clos too. *)
let clos_fraction_conservation () =
  let topo = Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:4 in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create 3 in
  for _ = 1 to 20 do
    let src = Util.Rng.int rng 16 and dst = Util.Rng.int rng 16 in
    if src <> dst then begin
      let { Routing.links; fracs; _ } = Routing.fractions ctx Routing.Rps ~src ~dst in
      let net = Array.make (Topology.vertex_count topo) 0.0 in
      Array.iteri
        (fun j l ->
          let f = U.to_float fracs.(j) in
          net.(Topology.link_src topo l) <- net.(Topology.link_src topo l) +. f;
          net.(Topology.link_dst topo l) <- net.(Topology.link_dst topo l) -. f)
        links;
      Alcotest.(check (float 1e-6)) "src emits 1" 1.0 net.(src);
      Alcotest.(check (float 1e-6)) "dst absorbs 1" (-1.0) net.(dst)
    end
  done

let clos_r2c2_completes () =
  let topo = Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:4 in
  let specs = specs_on topo 5 100 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all complete on the Clos" 100
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let clos_broadcast_size () =
  (* §6: 512 servers behind 32-port switches -> a broadcast is ~8.7 KB. *)
  (* 512 servers + 32 leaves + 16 spines = 560 vertices -> 559 tree edges. *)
  let topo = Topology.clos ~leaves:32 ~spines:16 ~servers_per_leaf:16 in
  Alcotest.(check int) "16 * 559" 8944 (Broadcast.bytes_per_broadcast topo)

let mesh_r2c2_completes () =
  let topo = Topology.mesh [| 4; 4 |] in
  let specs = specs_on topo 7 100 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all complete on the mesh" 100
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let mesh_tcp_completes () =
  let topo = Topology.mesh [| 4; 4 |] in
  let specs = specs_on topo 9 80 1_000.0 in
  let res = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
  Alcotest.(check int) "tcp completes on the mesh" 80
    (Sim.Metrics.completed_count res.Sim.Tcp_sim.metrics)

let degraded_topology_r2c2 () =
  (* Fail a cable on the down-state overlay and run traffic across the
     degraded rack. *)
  let topo = Topology.torus [| 4; 4 |] in
  Topology.fail_link topo 0 1;
  let specs = specs_on topo 11 100 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all complete after failure" 100
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let fct_lower_bound () =
  (* No transport can beat size/line-rate plus the pipeline latency. *)
  let topo = Topology.torus [| 4; 4 |] in
  let specs = specs_on topo 13 100 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  List.iteri
    (fun i (s : Workload.Flowgen.spec) ->
      let f = Sim.Metrics.find res.Sim.R2c2_sim.metrics i in
      let fct = Sim.Metrics.fct_ns f in
      (* 10 Gbps = 1.25 B/ns; at least one hop of latency. *)
      let bound = int_of_float (float_of_int s.size /. 1.25) in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d: fct %d >= bound %d" i fct bound)
        true (fct >= bound))
    specs

let pfq_beats_single_link_bound () =
  (* PFQ's multipath ideal must finish a lone big flow faster than a
     single 10 Gbps link could. *)
  let topo = Topology.torus [| 4; 4 |] in
  let spec =
    { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 5; size = 50_000_000; weight = 1; priority = 0 }
  in
  match (Emu.Fluid.run_pfq 1 topo [ spec ]).Emu.Fluid.flows with
  | [ r ] ->
      let single_link_ns = int_of_float (float_of_int spec.size /. 1.25) in
      Alcotest.(check bool) "faster than one link" true (r.Emu.Fluid.fct_ns < single_link_ns)
  | _ -> Alcotest.fail "expected one result"

let stack_matches_fluid_rates () =
  (* The Stack facade and the fluid emulator share the allocator: for a
     static set of long flows their aggregate rates must agree. *)
  let topo = Topology.torus [| 4; 4; 4 |] in
  let stack = R2c2.Stack.create topo in
  let rng = Util.Rng.create 17 in
  let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.5) in
  List.iter
    (fun (s : Workload.Flowgen.spec) -> ignore (R2c2.Stack.open_flow stack ~src:s.src ~dst:s.dst))
    specs;
  R2c2.Stack.recompute stack;
  let stack_agg = U.to_float (R2c2.Stack.aggregate_throughput_gbps stack) in
  (* Same flows via the raw allocator. *)
  let ctx = Routing.make topo in
  let wf =
    Array.of_list
      (List.mapi
         (fun i (s : Workload.Flowgen.spec) ->
           Congestion.Waterfill.flow ~id:i (Routing.fractions ctx Routing.Rps ~src:s.src ~dst:s.dst))
         specs)
  in
  let capacities =
    Array.make (Topology.link_count topo) (U.byte_rate_of_gbps Topology.link_gbps)
  in
  let rates = Waterfill_model.fresh_rates ~headroom:Topology.headroom ~capacities wf in
  let raw_agg = 8.0 *. Array.fold_left ( +. ) 0.0 (U.floats_of rates) in
  Alcotest.(check (float 0.001)) "same aggregate" raw_agg stack_agg

let broadcast_after_failure_spans () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  Topology.fail_link topo 0 1;
  let b = Broadcast.make topo in
  for tree = 0 to 3 do
    let count = ref 0 in
    let rec walk v =
      incr count;
      List.iter walk (Broadcast.children b ~src:0 ~tree v)
    in
    walk 0;
    Alcotest.(check int) "tree spans degraded rack" 64 !count
  done

let vlb_flow_on_wire () =
  (* A VLB flow's simulated packets must stay within the header's 42-hop
     route budget on a 512-node rack. *)
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create 19 in
  for _ = 1 to 200 do
    let src = Util.Rng.int rng 512 in
    let dst = (src + 1 + Util.Rng.int rng 511) mod 512 in
    let path = Routing.sample_path ctx rng Routing.Vlb ~src ~dst in
    Alcotest.(check bool) "within route budget" true (Array.length path - 1 <= Wire.max_route_hops);
    ignore (Wire.route_selectors ctx path)
  done

let flattened_butterfly_r2c2 () =
  let topo = Topology.flattened_butterfly 4 in
  let specs = specs_on topo 21 100 1_000.0 in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
  Alcotest.(check int) "all complete on the flattened butterfly" 100
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let hypercube_broadcast_spans () =
  let topo = Topology.hypercube 6 in
  let b = Broadcast.make topo in
  let count = ref 0 in
  let rec walk v =
    incr count;
    List.iter walk (Broadcast.children b ~src:0 ~tree:1 v)
  in
  walk 0;
  Alcotest.(check int) "64-node hypercube broadcast" 64 !count

let bridged_racks_inter_rack_traffic () =
  (* SS6: two racks joined by direct cables, no switch in between. *)
  let rack = Topology.torus [| 4; 4 |] in
  let fabric = Topology.bridge rack rack ~cables:[ (3, 0); (12, 15) ] in
  Alcotest.(check int) "32 hosts" 32 (Topology.host_count fabric);
  (* Cross-rack distance = to the bridge + 1 + from the bridge. *)
  Alcotest.(check int) "across a cable" 1 (Topology.distance fabric 3 16);
  Alcotest.(check bool) "fabric connected" true (Topology.distance fabric 0 31 < max_int);
  (* Broadcast trees span both racks. *)
  let b = Broadcast.make fabric in
  let count = ref 0 in
  let rec walk v =
    incr count;
    List.iter walk (Broadcast.children b ~src:5 ~tree:0 v)
  in
  walk 5;
  Alcotest.(check int) "broadcast spans both racks" 32 !count;
  (* And the full stack runs inter-rack flows over it. *)
  let rng = Util.Rng.create 23 in
  let specs =
    List.init 40 (fun i ->
        let src = Util.Rng.int rng 16 and dst = 16 + Util.Rng.int rng 16 in
        { Workload.Flowgen.arrival_ns = i * 1000; src; dst; size = 50_000; weight = 1; priority = 0 })
  in
  let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config fabric specs in
  Alcotest.(check int) "inter-rack flows complete" 40
    (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics)

let bridge_validates () =
  let rack = Topology.torus [| 4; 4 |] in
  Alcotest.check_raises "no cables" (Invalid_argument "Topology.bridge: no cables") (fun () ->
      ignore (Topology.bridge rack rack ~cables:[]));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Topology.bridge: cable endpoint out of host range") (fun () ->
      ignore (Topology.bridge rack rack ~cables:[ (99, 0) ]));
  (* One cable per pair: a second link for the pair would outlive a
     [fail_link] of the cable, which fails only the link [find_link_id]
     names. *)
  Alcotest.check_raises "cable listed twice" (Invalid_argument "Topology: cable listed twice")
    (fun () -> ignore (Topology.bridge rack rack ~cables:[ (0, 0); (0, 0) ]));
  let clos = Topology.clos ~leaves:2 ~spines:2 ~servers_per_leaf:2 in
  Alcotest.check_raises "switched racks"
    (Invalid_argument "Topology.bridge: switched (Clos) racks cannot be bridged directly")
    (fun () -> ignore (Topology.bridge clos clos ~cables:[ (0, 0) ]))

(* The TCP and fluid engines refuse a spec they cannot run before the run
   starts: a 4x4 torus has no vertex 16, and a fluid flow's weight and
   priority must fit the one byte each that its broadcast carries. *)
let engines_refuse_bad_specs () =
  let topo = Topology.torus [| 4; 4 |] in
  let spec ?(dst = 16) ?(weight = 1) ?(priority = 0) () =
    { Workload.Flowgen.arrival_ns = 0; src = 0; dst; size = 1_000; weight; priority }
  in
  let no_host who = Invalid_argument (who ^ ": endpoint is not a host") in
  Alcotest.check_raises "tcp" (no_host "Tcp_sim") (fun () ->
      ignore (Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo [ spec () ]));
  Alcotest.check_raises "fluid" (no_host "Fluid") (fun () ->
      ignore (Emu.Fluid.run Emu.Fluid.default_config topo [ spec () ]));
  Alcotest.check_raises "pfq" (no_host "Fluid") (fun () ->
      ignore (Emu.Fluid.run_pfq 1 topo [ spec () ]));
  Alcotest.check_raises "fluid weight 0" (Invalid_argument "Fluid.run: weight outside 1..255")
    (fun () -> ignore (Emu.Fluid.run Emu.Fluid.default_config topo [ spec ~dst:5 ~weight:0 () ]));
  let fluid s = Emu.Fluid.run Emu.Fluid.default_config topo [ s ] in
  Alcotest.check_raises "fluid weight 256" (Invalid_argument "Fluid.run: weight outside 1..255")
    (fun () -> ignore (fluid (spec ~dst:5 ~weight:256 ())));
  List.iter
    (fun priority ->
      Alcotest.check_raises
        (Printf.sprintf "fluid priority %d" priority)
        (Invalid_argument "Fluid.run: priority outside 0..255")
        (fun () -> ignore (fluid (spec ~dst:5 ~priority ()))))
    [ -1; 256 ];
  Alcotest.(check int) "fluid weight and priority 255 run" 1
    (List.length (fluid (spec ~dst:5 ~weight:255 ~priority:255 ())).Emu.Fluid.flows)

let qcheck_r2c2_delivers =
  QCheck.Test.make ~name:"R2C2 sim delivers every byte (random workloads)" ~count:15
    QCheck.(pair (int_bound 1000) (1 -- 40))
    (fun (seed, n) ->
      let topo = Topology.torus [| 3; 3 |] in
      let specs = specs_on topo (seed + 1) n 2_000.0 in
      let res = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
      Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics = n)

let qcheck_tcp_vs_r2c2_bytes =
  QCheck.Test.make ~name:"TCP and R2C2 deliver identical byte totals" ~count:10
    (QCheck.int_bound 1000) (fun seed ->
      let topo = Topology.torus [| 3; 3 |] in
      let specs = specs_on topo (seed + 3) 25 2_000.0 in
      let total = List.fold_left (fun a (s : Workload.Flowgen.spec) -> a + s.size) 0 specs in
      let sum m =
        List.fold_left (fun a (f : Sim.Metrics.flow) -> a + f.Sim.Metrics.delivered) 0
          (Sim.Metrics.all m)
      in
      let r = Sim.R2c2_sim.run Sim.R2c2_sim.default_config topo specs in
      let t = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
      sum r.Sim.R2c2_sim.metrics = total && sum t.Sim.Tcp_sim.metrics = total)

let suites =
  [
    ( "integration",
      [
        tc "Clos fraction conservation" clos_fraction_conservation;
        tc "R2C2 completes on a Clos" clos_r2c2_completes;
        tc "Clos broadcast ~8.7 KB (paper SS6)" clos_broadcast_size;
        tc "R2C2 completes on a mesh" mesh_r2c2_completes;
        tc "TCP completes on a mesh" mesh_tcp_completes;
        tc "R2C2 completes on a degraded torus" degraded_topology_r2c2;
        tc "FCT never beats the line-rate bound" fct_lower_bound;
        tc "PFQ multipath beats one link" pfq_beats_single_link_bound;
        tc "Stack aggregate equals raw allocator" stack_matches_fluid_rates;
        tc "broadcast trees span a degraded rack" broadcast_after_failure_spans;
        tc "VLB paths fit the 42-hop route field" vlb_flow_on_wire;
        tc "R2C2 completes on a flattened butterfly" flattened_butterfly_r2c2;
        tc "hypercube broadcast spans" hypercube_broadcast_spans;
        tc "bridged racks carry inter-rack traffic (SS6)" bridged_racks_inter_rack_traffic;
        tc "bridge validation" bridge_validates;
        tc "TCP and fluid engines refuse bad specs" engines_refuse_bad_specs;
        QCheck_alcotest.to_alcotest qcheck_r2c2_delivers;
        QCheck_alcotest.to_alcotest qcheck_tcp_vs_r2c2_bytes;
      ] );
  ]
