(* Adaptive routing selection (§3.4): long flows start on minimal routing;
   the stack periodically searches per-flow protocol assignments with a
   genetic algorithm to maximize aggregate throughput.

   Run with: dune exec examples/adaptive_routing.exe *)

let () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let stack = R2c2.Stack.create topo in
  Format.printf "rack: %a@." Topology.pp topo;

  (* A permutation of long-running flows at moderate load: enough spare
     capacity that detouring some flows (VLB) pays off. *)
  let rng = Util.Rng.create 3 in
  let specs =
    Workload.Flowgen.permutation_long_flows topo rng ~load:(Util.Units.fraction 0.25)
  in
  List.iter
    (fun (s : Workload.Flowgen.spec) -> ignore (R2c2.Stack.open_flow stack ~src:s.src ~dst:s.dst))
    specs;
  Format.printf "opened %d long-running flows, all on RPS (minimal routing)@."
    (List.length specs);

  R2c2.Stack.recompute stack;
  let before = Util.Units.to_float (R2c2.Stack.aggregate_throughput_gbps stack) in
  Format.printf "aggregate throughput, all-RPS: %.1f Gbps@." before;

  let changes = ref [] in
  R2c2.Stack.on_broadcast stack (fun b ->
      if b.Wire.event = Wire.Route_change then
        changes := (b.Wire.bsrc, b.Wire.bdst, b.Wire.rp) :: !changes);

  let changed = R2c2.Stack.reselect_routing stack (Util.Rng.create 11) in
  R2c2.Stack.recompute stack;
  let after = Util.Units.to_float (R2c2.Stack.aggregate_throughput_gbps stack) in

  Format.printf "GA reselection moved %d flows to a different protocol:@." changed;
  List.iter
    (fun (s, d, rp) ->
      Format.printf "  flow %d -> %d now routed with %a@." s d Routing.pp_protocol rp)
    (List.rev !changes);
  Format.printf "aggregate throughput, adaptive: %.1f Gbps (%+.1f%%)@." after
    (100.0 *. (after -. before) /. before);

  (* Compare with the uniform baselines the paper plots in Fig. 18, under
     the same headroom the stack allocates with. *)
  let ctx = R2c2.Stack.routing stack in
  let sel = Genetic.Selector.make ~headroom:Topology.headroom ctx ~link_gbps:Topology.link_gbps in
  let flows =
    Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
  in
  Format.printf "baselines: all-RPS %.1f Gbps, all-VLB %.1f Gbps@."
    (Util.Units.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps))
    (Util.Units.to_float (Genetic.Selector.uniform sel ~flows Routing.Vlb))
