(* Failure handling (§3.2): when topology discovery reports a failed cable,
   nodes re-broadcast their ongoing flows and the control plane converges
   on the degraded topology.

   Run with: dune exec examples/failure_recovery.exe *)

let () =
  let topo = Topology.torus [| 4; 4 |] in
  let stack = R2c2.Stack.create topo in
  let f1 = R2c2.Stack.open_flow stack ~src:0 ~dst:2 in
  let f2 = R2c2.Stack.open_flow stack ~src:1 ~dst:2 in
  R2c2.Stack.recompute stack;
  Format.printf "before failure: flow %d at %.2f Gbps, flow %d at %.2f Gbps@." f1
    (Util.Units.to_float (R2c2.Stack.rate_gbps stack f1))
    f2
    (Util.Units.to_float (R2c2.Stack.rate_gbps stack f2));
  let rng = Util.Rng.create 3 in
  let path, _ = R2c2.Stack.sample_packet_route stack f1 rng in
  Format.printf "flow %d path before: [%s]@." f1
    (String.concat " -> " (Array.to_list (Array.map string_of_int path)));

  (* The cable between 1 and 2 fails. Topology discovery (which routing
     needs anyway) reports it, and the stack re-paths its flows and
     re-broadcasts them: the paper's §3.2 — "Upon detecting a failure,
     nodes broadcast information about all their ongoing flows." *)
  Format.printf "@.!! link 1 <-> 2 fails@.";
  Topology.fail_link topo 1 2;
  let reannounced = ref 0 in
  R2c2.Stack.on_broadcast stack (fun b ->
      if b.Wire.event = Wire.Flow_start then incr reannounced);
  ignore (R2c2.Stack.notify_failure stack);
  Format.printf "re-announced %d ongoing flows over the surviving links@." !reannounced;

  R2c2.Stack.recompute stack;
  Format.printf "after failure: flow %d at %.2f Gbps, flow %d at %.2f Gbps@." f1
    (Util.Units.to_float (R2c2.Stack.rate_gbps stack f1))
    f2
    (Util.Units.to_float (R2c2.Stack.rate_gbps stack f2));
  let path', _ = R2c2.Stack.sample_packet_route stack f2 rng in
  Format.printf "flow %d path after: [%s] (avoids the dead cable)@." f2
    (String.concat " -> " (Array.to_list (Array.map string_of_int path')));

  (* Broadcast trees also avoid the failed link: all 4 per-source trees
     still span the rack. *)
  let b = R2c2.Stack.broadcast stack in
  let spans tree =
    let count = ref 0 in
    let rec walk v =
      incr count;
      List.iter walk (Broadcast.children b ~src:1 ~tree v)
    in
    walk 1;
    !count = Topology.vertex_count topo
  in
  let all = List.for_all spans [ 0; 1; 2; 3 ] in
  Format.printf "all broadcast trees still span the rack: %b@." all
