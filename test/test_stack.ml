(* Tests for lib/core: the Stack control-plane facade and the Fig. 19
   control-traffic model. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* Unwrap an allocation for the raw-number checks below. *)
let rate st f = U.to_float (R2c2.Stack.rate_gbps st f)

let mk () = R2c2.Stack.create ~seed:3 (Topology.torus [| 4; 4 |])

let open_close_lifecycle () =
  let st = mk () in
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  Alcotest.(check int) "one active flow" 1 (List.length (R2c2.Stack.active_flows st));
  R2c2.Stack.close_flow st f;
  Alcotest.(check int) "closed" 0 (List.length (R2c2.Stack.active_flows st));
  Alcotest.check_raises "double close" (Invalid_argument "Stack: unknown flow id") (fun () ->
      R2c2.Stack.close_flow st f)

let open_flow_validation () =
  let st = mk () in
  Alcotest.check_raises "self flow" (Invalid_argument "Stack.open_flow: src = dst") (fun () ->
      ignore (R2c2.Stack.open_flow st ~src:3 ~dst:3));
  Alcotest.check_raises "out of range" (Invalid_argument "Stack.open_flow: host out of range")
    (fun () -> ignore (R2c2.Stack.open_flow st ~src:0 ~dst:99))

(* The broadcast carries weight and priority in 8-bit fields. A value it
   cannot carry is refused before the flow touches any state: no ghost
   flow in the table or the allocator, so later flows get exactly a fresh
   stack's rates. *)
let open_flow_refuses_unencodable_class () =
  let st = mk () in
  let hash = R2c2.Stack.matrix_hash st in
  Alcotest.check_raises "negative priority"
    (Invalid_argument "Stack.open_flow: priority outside 0..255") (fun () ->
      ignore (R2c2.Stack.open_flow ~priority:(-1) st ~src:0 ~dst:5));
  Alcotest.check_raises "weight wider than 8 bits"
    (Invalid_argument "Stack.open_flow: weight outside 1..255") (fun () ->
      ignore (R2c2.Stack.open_flow ~weight:1000 st ~src:0 ~dst:5));
  Alcotest.(check int) "no flow left behind" 0 (List.length (R2c2.Stack.allocations st));
  Alcotest.(check bool) "matrix hash unchanged" true (R2c2.Stack.matrix_hash st = hash);
  let two_flows s =
    let a = R2c2.Stack.open_flow s ~src:1 ~dst:6 in
    let b = R2c2.Stack.open_flow s ~src:2 ~dst:6 in
    R2c2.Stack.recompute s;
    (rate s a, rate s b)
  in
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "later flows get a fresh stack's rates" (two_flows (mk ())) (two_flows st)

let broadcasts_observable () =
  let st = mk () in
  let events = ref [] in
  R2c2.Stack.on_broadcast st (fun b -> events := b.Wire.event :: !events);
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  R2c2.Stack.set_demand st f ~gbps:(Some (U.gbps 2.0));
  R2c2.Stack.set_protocol st f Routing.Vlb;
  R2c2.Stack.close_flow st f;
  Alcotest.(check (list bool)) "event sequence" [ true; true; true; true ]
    (List.map
       (fun e ->
         List.mem e [ Wire.Flow_start; Wire.Demand_update; Wire.Route_change; Wire.Flow_finish ])
       !events);
  Alcotest.(check int) "four events" 4 (List.length !events)

let set_protocol_idempotent () =
  let st = mk () in
  let count = ref 0 in
  R2c2.Stack.on_broadcast st (fun _ -> incr count);
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let before = !count in
  R2c2.Stack.set_protocol st f Routing.Rps;
  (* Same protocol: no broadcast. *)
  Alcotest.(check int) "no event for no-op" before !count

let control_bytes_accounting () =
  let st = mk () in
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  R2c2.Stack.close_flow st f;
  (* 16 bytes x 15 edges x 2 events on a 16-node rack. *)
  Alcotest.(check int) "control bytes" (2 * 16 * 15) (R2c2.Stack.control_bytes_sent st)

let recompute_rates () =
  let st = mk () in
  let f1 = R2c2.Stack.open_flow st ~src:1 ~dst:0 in
  let f2 = R2c2.Stack.open_flow st ~src:2 ~dst:0 in
  Alcotest.(check (float 1e-9)) "zero before recompute" 0.0 (rate st f1);
  R2c2.Stack.recompute st;
  let r1 = rate st f1 and r2 = rate st f2 in
  Alcotest.(check bool) "positive" true (r1 > 0.0 && r2 > 0.0);
  Alcotest.(check bool) "nearly fair" true (abs_float (r1 -. r2) < 0.5);
  Alcotest.(check (float 1e-6)) "aggregate = sum" (r1 +. r2)
    (U.to_float (R2c2.Stack.aggregate_throughput_gbps st))

let weights_and_priorities () =
  let st = mk () in
  let hi = R2c2.Stack.open_flow ~priority:0 st ~src:1 ~dst:0 in
  let lo = R2c2.Stack.open_flow ~priority:1 st ~src:1 ~dst:0 in
  R2c2.Stack.recompute st;
  Alcotest.(check bool) "strict priority" true
    (rate st hi > 8.0 && rate st lo < 1.0)

let demand_limits_allocation () =
  let st = mk () in
  let f1 = R2c2.Stack.open_flow st ~src:1 ~dst:0 in
  let f2 = R2c2.Stack.open_flow st ~src:2 ~dst:0 in
  R2c2.Stack.set_demand st f1 ~gbps:(Some (U.gbps 1.0));
  R2c2.Stack.recompute st;
  Alcotest.(check bool) "demand-capped" true (rate st f1 <= 1.0 +. 1e-6);
  Alcotest.(check bool) "spare goes to the other flow" true (rate st f2 > 2.0)

let observe_queue_triggers_demand_update () =
  let st = mk () in
  let f = R2c2.Stack.open_flow st ~src:1 ~dst:0 in
  let other = R2c2.Stack.open_flow st ~src:2 ~dst:0 in
  R2c2.Stack.recompute st;
  (* Build estimator history while the flow's share is low... *)
  R2c2.Stack.observe_sender_queue st f ~queued_bytes:(U.bytes 0.0) ~period_ns:1_000_000;
  (* ...then give it a much larger allocation: the smoothed demand estimate
     now sits below the new share, i.e. the flow is host limited. *)
  R2c2.Stack.close_flow st other;
  R2c2.Stack.recompute st;
  let saw_demand = ref false in
  R2c2.Stack.on_broadcast st (fun b -> if b.Wire.event = Wire.Demand_update then saw_demand := true);
  R2c2.Stack.observe_sender_queue st f ~queued_bytes:(U.bytes 0.0) ~period_ns:1_000_000;
  Alcotest.(check bool) "demand update broadcast" true !saw_demand

let reselect_improves_throughput () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let st = R2c2.Stack.create ~seed:5 topo in
  let rng = Util.Rng.create 7 in
  let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction 0.25) in
  List.iter
    (fun (s : Workload.Flowgen.spec) -> ignore (R2c2.Stack.open_flow st ~src:s.src ~dst:s.dst))
    specs;
  R2c2.Stack.recompute st;
  let before = U.to_float (R2c2.Stack.aggregate_throughput_gbps st) in
  let changed = R2c2.Stack.reselect_routing st (Util.Rng.create 9) in
  R2c2.Stack.recompute st;
  let after = U.to_float (R2c2.Stack.aggregate_throughput_gbps st) in
  Alcotest.(check bool)
    (Printf.sprintf "no regression (%.1f -> %.1f, %d changed)" before after changed)
    true
    (after >= before -. 1e-6)

let sample_packet_route_valid () =
  let st = mk () in
  let f = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let rng = Util.Rng.create 11 in
  let path, sels = R2c2.Stack.sample_packet_route st f rng in
  Alcotest.(check int) "route selectors cover hops" (Array.length path - 1) (Array.length sels);
  Alcotest.(check int) "starts at src" 0 path.(0);
  Alcotest.(check int) "ends at dst" 5 path.(Array.length path - 1)

(* On an intact topology [notify_failure] drops nothing and re-announces
   every open flow. *)
let failure_reannounces_flows () =
  let st = mk () in
  let _ = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let _ = R2c2.Stack.open_flow st ~src:1 ~dst:6 in
  let count = ref 0 in
  R2c2.Stack.on_broadcast st (fun b -> if b.Wire.event = Wire.Flow_start then incr count);
  ignore (R2c2.Stack.notify_failure st);
  Alcotest.(check int) "every open flow re-broadcast" 2 !count

(* Regression: a failure re-announce must also re-emit the demand state, or
   the rebuilt rack view would silently treat host-limited flows as
   network-limited until their next estimator period. *)
let failure_reemits_demand () =
  let st = mk () in
  let limited = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let unlimited = R2c2.Stack.open_flow st ~src:1 ~dst:6 in
  let estimated = R2c2.Stack.open_flow st ~src:2 ~dst:7 in
  R2c2.Stack.set_demand st limited ~gbps:(Some (U.gbps 2.0));
  (* [estimated] has a live estimator but no declared demand. *)
  R2c2.Stack.recompute st;
  R2c2.Stack.observe_sender_queue st estimated ~queued_bytes:(U.bytes 1e6) ~period_ns:1_000_000;
  let demand_updates = ref [] in
  let starts = ref 0 in
  R2c2.Stack.on_broadcast st (fun b ->
      match b.Wire.event with
      | Wire.Demand_update -> demand_updates := (b.Wire.bsrc, b.Wire.demand_kbps) :: !demand_updates
      | Wire.Flow_start -> incr starts
      | Wire.Flow_finish | Wire.Route_change -> ());
  ignore (R2c2.Stack.notify_failure st);
  Alcotest.(check int) "every open flow re-broadcast" 3 !starts;
  Alcotest.(check int) "demand re-emitted for declared + estimated flows" 2
    (List.length !demand_updates);
  (* The declared 2 Gbps demand survives the failure verbatim. *)
  Alcotest.(check bool) "declared demand value carried" true
    (List.exists (fun (src, kbps) -> src = 0 && kbps = 2_000_000) !demand_updates);
  ignore unlimited

(* The incremental epoch state must converge to exactly what a fresh stack
   computes from scratch for the same final traffic matrix. *)
let incremental_matches_fresh_stack () =
  let churned = mk () in
  let rng = Util.Rng.create 21 in
  let live = ref [] in
  for _ = 1 to 60 do
    (match Util.Rng.int rng 4 with
    | 0 | 1 ->
        let src = Util.Rng.int rng 16 in
        let dst = (src + 1 + Util.Rng.int rng 15) mod 16 in
        let weight = 1 + Util.Rng.int rng 3 in
        let priority = Util.Rng.int rng 2 in
        let id = R2c2.Stack.open_flow ~weight ~priority churned ~src ~dst in
        live := (id, src, dst, weight, priority, ref None) :: !live
    | 2 when !live <> [] ->
        let n = List.length !live in
        let id, _, _, _, _, _ = List.nth !live (Util.Rng.int rng n) in
        R2c2.Stack.close_flow churned id;
        live := List.filter (fun (i, _, _, _, _, _) -> i <> id) !live
    | _ -> (
        match !live with
        | [] -> ()
        | l ->
            let id, _, _, _, _, demand = List.nth l (Util.Rng.int rng (List.length l)) in
            let g = if Util.Rng.bool rng then Some (U.gbps (Util.Rng.float rng 4.0)) else None in
            demand := g;
            R2c2.Stack.set_demand churned id ~gbps:g));
    (* Interleave recomputes so the arena really is reused across epochs. *)
    if Util.Rng.int rng 3 = 0 then R2c2.Stack.recompute churned
  done;
  R2c2.Stack.recompute churned;
  let fresh = mk () in
  let pairs =
    List.rev_map
      (fun (id, src, dst, weight, priority, demand) ->
        let id' = R2c2.Stack.open_flow ~weight ~priority fresh ~src ~dst in
        (match !demand with Some _ as g -> R2c2.Stack.set_demand fresh id' ~gbps:g | None -> ());
        (id, id'))
      !live
  in
  R2c2.Stack.recompute fresh;
  Alcotest.(check bool) "nonempty scenario" true (List.length pairs > 3);
  List.iter
    (fun (id, id') ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "flow %d" id)
        (rate fresh id') (rate churned id))
    pairs

(* Flow events only patch the allocator and a recompute is the allocator's
   own pass, so once its buffers have grown a dirty epoch allocates
   nothing. *)
let warm_recompute_allocates_nothing () =
  let st = R2c2.Stack.create ~seed:3 (Topology.torus [| 8; 8; 8 |]) in
  let flows = Array.init 64 (fun i -> R2c2.Stack.open_flow st ~src:(i + 1) ~dst:0) in
  R2c2.Stack.recompute st;
  R2c2.Stack.close_flow st flows.(5);
  ignore (R2c2.Stack.open_flow st ~src:65 ~dst:0);
  let before = Gc.minor_words () in
  R2c2.Stack.recompute st;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "recomputed" true (Congestion.Waterfill.dbg.push > 0);
  Alcotest.(check (float 0.0)) "minor words of a warm dirty recompute" 0.0 words

(* A stack keeps a row only while a flow holds it. Once every
   destination's distances are warm, opening and closing 2,000 flows over
   distinct pairs of the 8x8x8 torus must leave its routing context the
   size it was: a context that kept the rows it built would grow by about
   3.7 KB per pair here. *)
let routing_state_bounded_by_the_rack () =
  let topo = Topology.torus [| 8; 8; 8 |] in
  let st = R2c2.Stack.create ~seed:7 topo in
  let ctx = R2c2.Stack.routing st in
  let h = Topology.host_count topo in
  for dst = 0 to h - 1 do
    ignore (Routing.fractions ctx Routing.Rps ~src:((dst + 1) mod h) ~dst)
  done;
  let before = Obj.reachable_words (Obj.repr ctx) in
  for i = 0 to 1999 do
    (* Four offsets from every source: 2,000 distinct pairs. *)
    let src = i mod h in
    let f = R2c2.Stack.open_flow st ~src ~dst:((src + 137 + (73 * (i / h))) mod h) in
    R2c2.Stack.close_flow st f
  done;
  let grown = (Obj.reachable_words (Obj.repr ctx) - before) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "routing context grew by %d bytes over 2,000 pairs (at most 4 KB)" grown)
    true (grown <= 4096)

(* -- policy mapping (SS3.3.2) -------------------------------------------------- *)

let policy_tenant_weights () =
  let d = R2c2.Policy.tenant_share ~weight:3 in
  Alcotest.(check int) "weight" 3 d.R2c2.Policy.weight;
  Alcotest.(check int) "priority" 0 d.R2c2.Policy.priority;
  Alcotest.check_raises "weight too large"
    (Invalid_argument "Policy.tenant_share: weight must be in 1..255") (fun () ->
      ignore (R2c2.Policy.tenant_share ~weight:256))

let policy_deadline_bands () =
  let link_gbps = Topology.link_gbps in
  (* 1 MB in 1 ms needs 8 Gbps: most urgent band. *)
  let urgent = R2c2.Policy.deadline ~size_bytes:1_000_000 ~deadline_ns:1_000_000 ~link_gbps in
  Alcotest.(check int) "urgent band" 0 urgent.R2c2.Policy.priority;
  (* 10 KB in 1 ms needs 0.08 Gbps: laxest band. *)
  let lax = R2c2.Policy.deadline ~size_bytes:10_000 ~deadline_ns:1_000_000 ~link_gbps in
  Alcotest.(check int) "lax band" (R2c2.Policy.deadline_bands - 1) lax.R2c2.Policy.priority;
  Alcotest.(check bool) "background below all bands" true
    (R2c2.Policy.background.R2c2.Policy.priority > lax.R2c2.Policy.priority)

let policy_deadline_monotone () =
  (* Tighter deadlines never get a lower-urgency band. *)
  let link_gbps = Topology.link_gbps in
  let prev = ref max_int in
  List.iter
    (fun dl ->
      let d = R2c2.Policy.deadline ~size_bytes:1_000_000 ~deadline_ns:dl ~link_gbps in
      Alcotest.(check bool) "priority non-increasing with urgency" true
        (d.R2c2.Policy.priority <= !prev);
      prev := d.R2c2.Policy.priority)
    [ 100_000_000; 10_000_000; 2_000_000; 1_000_000; 500_000 ]

let policy_end_to_end_deadline () =
  (* An urgent flow mapped through the policy module preempts background
     bulk on the same bottleneck and meets its deadline. *)
  let st = mk () in
  let link_gbps = Topology.link_gbps in
  let urgent_d = R2c2.Policy.deadline ~size_bytes:1_000_000 ~deadline_ns:1_200_000 ~link_gbps in
  let urgent =
    R2c2.Stack.open_flow ~weight:urgent_d.R2c2.Policy.weight
      ~priority:urgent_d.R2c2.Policy.priority st ~src:1 ~dst:0
  in
  let bulk =
    R2c2.Stack.open_flow ~weight:R2c2.Policy.background.R2c2.Policy.weight
      ~priority:R2c2.Policy.background.R2c2.Policy.priority st ~src:1 ~dst:0
  in
  R2c2.Stack.recompute st;
  let r = R2c2.Stack.rate_gbps st urgent in
  Alcotest.(check bool) "meets deadline" true
    (R2c2.Policy.meets_deadline ~size_bytes:1_000_000 ~deadline_ns:1_200_000 ~rate_gbps:r);
  Alcotest.(check bool) "bulk preempted" true (rate st bulk < (r : U.gbps :> float))

(* -- control traffic (Fig 19) ------------------------------------------------ *)

let fig19_decentralized_constant () =
  let topo = Topology.torus [| 8; 8; 8 |] in
  Alcotest.(check (float 1e-9)) "16 x 511" 8176.0
    (U.to_float (R2c2.Control_traffic.decentralized_event_bytes topo))

let fig19_centralized_grows () =
  let topo = Topology.torus [| 8; 8; 8 |] in
  let r1 = R2c2.Control_traffic.ratio topo ~flows_per_server:1 in
  let r10 = R2c2.Control_traffic.ratio topo ~flows_per_server:10 in
  Alcotest.(check bool) (Printf.sprintf "~6x at 1 flow (got %.1f)" r1) true (r1 > 4.0 && r1 < 9.0);
  Alcotest.(check bool) (Printf.sprintf "~20x at 10 flows (got %.1f)" r10) true
    (r10 > 15.0 && r10 < 27.0);
  Alcotest.(check bool) "monotone" true (r10 > r1)

let suites =
  [
    ( "stack",
      [
        tc "open/close lifecycle" open_close_lifecycle;
        tc "open_flow validation" open_flow_validation;
        tc "open_flow refuses an unencodable class" open_flow_refuses_unencodable_class;
        tc "broadcasts observable and well-formed" broadcasts_observable;
        tc "set_protocol idempotent" set_protocol_idempotent;
        tc "control bytes accounting" control_bytes_accounting;
        tc "recompute produces fair rates" recompute_rates;
        tc "priorities respected" weights_and_priorities;
        tc "demand limits allocation" demand_limits_allocation;
        tc "queue observation triggers demand update" observe_queue_triggers_demand_update;
        tc "routing reselection never regresses" reselect_improves_throughput;
        tc "sampled packet routes valid" sample_packet_route_valid;
        tc "failure handling re-announces flows" failure_reannounces_flows;
        tc "failure handling re-emits demand state" failure_reemits_demand;
        tc "incremental epochs match a fresh stack" incremental_matches_fresh_stack;
        tc "a warm dirty recompute allocates nothing" warm_recompute_allocates_nothing;
        tc "routing state bounded by the rack" routing_state_bounded_by_the_rack;
      ] );
    ( "policy",
      [
        tc "tenant weights" policy_tenant_weights;
        tc "deadline bands" policy_deadline_bands;
        tc "deadline urgency monotone" policy_deadline_monotone;
        tc "deadline end-to-end via the stack" policy_end_to_end_deadline;
      ] );
    ( "control_traffic",
      [
        tc "decentralized constant (paper: ~8 KB)" fig19_decentralized_constant;
        tc "centralized grows with flows/server" fig19_centralized_grows;
      ] );
  ]
