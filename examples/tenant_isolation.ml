(* Allocation flexibility (goal G4, §3.3.2 "Beyond per-flow fairness"):
   per-tenant weights and deadline-style priorities map onto the stack's
   weight/priority primitives.

   Run with: dune exec examples/tenant_isolation.exe *)

let () =
  let topo = Topology.torus [| 4; 4 |] in
  let stack = R2c2.Stack.create topo in

  (* Tenant A pays for 3x the share of tenant B; both run two flows into
     the same storage node 0, so the incoming links are the bottleneck.
     High-level policies map onto weight/priority via R2c2.Policy
     (§3.3.2). *)
  let a = R2c2.Policy.tenant_share ~weight:3 in
  let b = R2c2.Policy.tenant_share ~weight:1 in
  let open_with (d : R2c2.Policy.directive) ~src ~dst =
    R2c2.Stack.open_flow ~weight:d.R2c2.Policy.weight ~priority:d.R2c2.Policy.priority stack
      ~src ~dst
  in
  let a1 = open_with a ~src:1 ~dst:0 in
  let a2 = open_with a ~src:2 ~dst:0 in
  let b1 = open_with b ~src:5 ~dst:0 in
  let b2 = open_with b ~src:6 ~dst:0 in
  R2c2.Stack.recompute stack;

  let show name id =
    Format.printf "  %s: %5.2f Gbps@." name (Util.Units.to_float (R2c2.Stack.rate_gbps stack id))
  in
  Format.printf "weighted sharing (tenant A weight 3, tenant B weight 1):@.";
  show "A flow 1" a1;
  show "A flow 2" a2;
  show "B flow 1" b1;
  show "B flow 2" b2;
  let ta =
    Util.Units.to_float (Util.Units.add (R2c2.Stack.rate_gbps stack a1) (R2c2.Stack.rate_gbps stack a2))
  in
  let tb =
    Util.Units.to_float (Util.Units.add (R2c2.Stack.rate_gbps stack b1) (R2c2.Stack.rate_gbps stack b2))
  in
  Format.printf "tenant totals: A %.2f Gbps vs B %.2f Gbps (ratio %.2f)@." ta tb (ta /. tb);

  (* A deadline-critical RPC burst: 1 MB due within 1.5 ms maps to an
     urgent priority band; background replication sits below every band. *)
  Format.printf
    "@.adding a deadline flow (1 MB in 1.5 ms) and background replication:@.";
  let d =
    R2c2.Policy.deadline ~size_bytes:1_000_000 ~deadline_ns:1_500_000
      ~link_gbps:Topology.link_gbps
  in
  let rpc = open_with d ~src:9 ~dst:10 in
  let bulk = open_with R2c2.Policy.background ~src:9 ~dst:10 in
  R2c2.Stack.recompute stack;
  show "RPC (deadline)" rpc;
  show "bulk (scavenger)" bulk;
  Format.printf "  deadline met: %b@."
    (R2c2.Policy.meets_deadline ~size_bytes:1_000_000 ~deadline_ns:1_500_000
       ~rate_gbps:(R2c2.Stack.rate_gbps stack rpc));

  (* When the RPC flow declares a small demand, the bulk flow soaks up the
     leftover capacity on the same path. *)
  R2c2.Stack.set_demand stack rpc ~gbps:(Some (Util.Units.gbps 2.0));
  R2c2.Stack.recompute stack;
  Format.printf "@.after the RPC flow declares a 2 Gbps demand:@.";
  show "RPC (deadline)" rpc;
  show "bulk (scavenger)" bulk
