(* Fault injection and rack-wide recovery: the topology down-state overlay
   under exhaustive single-link removal, the packet-level failure story
   (blackholing, detection, tree repair, retransmission, reconvergence),
   byte conservation under overload, and the Stack control-plane response. *)

let tc name f = Alcotest.test_case name `Quick f

(* -- single-link survival across every builder ----------------------------- *)

(* Every direct-connect builder we ship is 2-edge-connected: removing any
   single cable must keep all hosts mutually reachable with finite
   distances, and [productive_hops] must never emit a dead link. *)
let builders =
  [
    ("torus 5x4", fun () -> Topology.torus [| 5; 4 |]);
    ("torus 3x3x3", fun () -> Topology.torus [| 3; 3; 3 |]);
    ("mesh 3x3", fun () -> Topology.mesh [| 3; 3 |]);
    ("mesh 4x3x2", fun () -> Topology.mesh [| 4; 3; 2 |]);
    ("fb 3", fun () -> Topology.flattened_butterfly 3);
    ("fb 4", fun () -> Topology.flattened_butterfly 4);
    ("hypercube 3", fun () -> Topology.hypercube 3);
  ]

let check_single_link_survival name build () =
  let t = build () in
  let nv = Topology.vertex_count t in
  let nh = Topology.host_count t in
  (* Undirected cables, each once. *)
  let cables = ref [] in
  for l = 0 to Topology.link_count t - 1 do
    let u = Topology.link_src t l and v = Topology.link_dst t l in
    if u < v then cables := (u, v) :: !cables
  done;
  List.iter
    (fun (u, v) ->
      Topology.fail_link t u v;
      let ctx = Printf.sprintf "%s -%d-%d" name u v in
      for w = 1 to nv - 1 do
        if not (Topology.reachable t 0 w) then
          Alcotest.failf "%s: vertex %d unreachable" ctx w
      done;
      for dst = 0 to nh - 1 do
        let d = Topology.dist_to t dst in
        for s = 0 to nh - 1 do
          if d.(s) = max_int then Alcotest.failf "%s: no path %d->%d" ctx s dst;
          if s <> dst then
            Array.iter
              (fun (_, l) ->
                if not (Topology.link_alive t l) then
                  Alcotest.failf "%s: dead productive hop %d->%d" ctx s dst)
              (Topology.productive_hops t s ~dst)
        done
      done;
      Topology.restore_link t u v)
    !cables;
  (* The overlay is clean again: distances match a fresh build. *)
  let fresh = build () in
  for dst = 0 to min 3 (nh - 1) do
    Alcotest.(check (array int))
      "restored distances" (Topology.dist_to fresh dst) (Topology.dist_to t dst)
  done

let single_link_cases =
  List.map
    (fun (name, build) ->
      tc (Printf.sprintf "single-link survival: %s" name) (check_single_link_survival name build))
    builders

(* -- packet-level recovery -------------------------------------------------- *)

let conservation r =
  let open Sim.R2c2_sim in
  Alcotest.(check int)
    "injected = delivered + dropped + blackholed" r.injected_payload
    (r.delivered_payload + r.dropped_payload + r.blackholed_payload)

let permutation_sim ?(cfg = Sim.R2c2_sim.default_config) ?(size = 200_000) () =
  let topo = Topology.torus [| 4; 4 |] in
  let cfg = { cfg with Sim.R2c2_sim.seed = 11 } in
  let t = Sim.R2c2_sim.create cfg topo in
  for i = 0 to 15 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + 5) mod 16) ~size)
  done;
  t

let link_kill_zero_lost_flows () =
  let t = permutation_sim () in
  Sim.R2c2_sim.inject_at t ~ns:50_000 (Fail_link (0, 1));
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "every flow completes" 16 (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check (list int)) "no flow aborted" [] r.aborted_flows;
  Alcotest.(check bool) "traffic was blackholed" true (r.blackholed_payload > 0);
  Alcotest.(check bool) "losses were retransmitted" true (r.retransmissions > 0);
  conservation r;
  (match r.failures with
  | [ fr ] ->
      Alcotest.(check string) "kind" "link" fr.kind;
      Alcotest.(check int) "failed on time" 50_000 fr.fail_ns;
      Alcotest.(check bool) "detected after the failure" true (fr.detect_ns > fr.fail_ns);
      Alcotest.(check bool) "reconverged" true (fr.reconverge_ns >= fr.detect_ns);
      Alcotest.(check bool) "within one recompute interval" true
        (fr.reconverge_ns - fr.detect_ns <= default_config.recompute_interval_ns)
  | l -> Alcotest.failf "expected one failure record, got %d" (List.length l));
  Alcotest.(check bool) "broken trees were repaired" true (r.tree_repairs > 0)

let node_kill_aborts_only_dead_endpoints () =
  let t = permutation_sim () in
  Sim.R2c2_sim.inject_at t ~ns:50_000 (Fail_node 3);
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  (* Flow i runs i -> (i+5) mod 16: only flow 3 (src) and 14 (dst) touch
     node 3. *)
  Alcotest.(check (list int)) "dead-endpoint flows aborted" [ 3; 14 ] r.aborted_flows;
  Alcotest.(check int) "the rest complete" 14 (Sim.Metrics.completed_count r.metrics);
  conservation r;
  (match r.failures with
  | [ fr ] ->
      Alcotest.(check string) "kind" "node" fr.kind;
      Alcotest.(check int) "two aborts charged to the event" 2 fr.aborted;
      Alcotest.(check bool) "reconverged" true (fr.reconverge_ns >= fr.detect_ns)
  | l -> Alcotest.failf "expected one failure record, got %d" (List.length l))

(* A fault the simulator could not apply is refused when it is injected,
   not when it fires mid-run; nothing of it is scheduled. *)
let inject_rejects_bad_faults () =
  let t = permutation_sim () in
  let rejects name msg fault =
    Alcotest.check_raises name (Invalid_argument ("R2c2_sim.inject_at: " ^ msg)) (fun () ->
        Sim.R2c2_sim.inject_at t ~ns:1_000 fault)
  in
  let frac = Util.Units.fraction in
  let flaky ?spike_ns ~loss ~spike () =
    Sim.R2c2_sim.Flaky { u = 0; v = 1; loss = frac loss; spike = frac spike; spike_ns }
  in
  let chaos ~loss ~dup =
    Sim.R2c2_sim.Control_chaos { loss = frac loss; reorder = frac 0.0; dup = frac dup }
  in
  rejects "fail a non-adjacent cable" "vertices not adjacent" (Fail_link (0, 5));
  rejects "restore a non-adjacent cable" "vertices not adjacent" (Restore_link (0, 5));
  rejects "flaky non-adjacent cable" "vertices not adjacent"
    (Flaky { u = 0; v = 5; loss = frac 0.1; spike = frac 0.0; spike_ns = None });
  rejects "unflaky non-adjacent cable" "vertices not adjacent" (Unflaky (0, 5));
  rejects "crash node 99" "node out of range" (Crash 99);
  rejects "fail node 16" "node out of range" (Fail_node 16);
  rejects "restart node -1" "node out of range" (Restart (-1));
  rejects "flaky loss 1" "loss outside [0, 1)" (flaky ~loss:1.0 ~spike:0.0 ());
  rejects "flaky spike -0.1" "spike outside [0, 1)" (flaky ~loss:0.1 ~spike:(-0.1) ());
  rejects "negative spike_ns" "negative spike_ns" (flaky ~spike_ns:(-1) ~loss:0.1 ~spike:0.1 ());
  rejects "chaos loss 1" "loss outside [0, 1)" (chaos ~loss:1.0 ~dup:0.0);
  rejects "chaos dup -0.1" "dup outside [0, 1)" (chaos ~loss:0.0 ~dup:(-0.1));
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "every flow completes" 16 (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check int) "no failure record" 0 (List.length r.failures)

(* The completion callback fires exactly once for each flow that
   completes, and never for a flow a failure aborts. *)
let callbacks_fire_once_and_never_when_aborted () =
  let topo = Topology.torus [| 4; 4 |] in
  let t = Sim.R2c2_sim.create { Sim.R2c2_sim.default_config with seed = 11 } topo in
  let fired = Array.make 16 0 in
  for i = 0 to 15 do
    ignore
      (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + 5) mod 16) ~size:400_000
         ~on_complete:(fun id -> fired.(id) <- fired.(id) + 1))
  done;
  Sim.R2c2_sim.inject_at t ~ns:50_000 (Fail_node 3);
  Sim.R2c2_sim.run_engine t;
  Alcotest.(check (list int)) "aborted" [ 3; 14 ] (Sim.R2c2_sim.results t).aborted_flows;
  Array.iteri
    (fun id n ->
      let expected = if id = 3 || id = 14 then 0 else 1 in
      Alcotest.(check int) (Printf.sprintf "flow %d callbacks" id) expected n)
    fired

let failure_run_deterministic () =
  let run () =
    let t = permutation_sim () in
    Sim.R2c2_sim.inject_at t ~ns:50_000 (Fail_link (0, 1));
    Sim.R2c2_sim.run_engine t;
    let r = Sim.R2c2_sim.results t in
    let open Sim.R2c2_sim in
    ( Sim.Metrics.fcts_us r.metrics,
      r.drops,
      r.blackholes,
      r.retransmissions,
      List.map (fun fr -> fr.reconverge_ns) r.failures )
  in
  let fcts1, d1, b1, rtx1, rc1 = run () in
  let fcts2, d2, b2, rtx2, rc2 = run () in
  Alcotest.(check (array (float 0.0))) "same FCTs" fcts1 fcts2;
  Alcotest.(check int) "same drops" d1 d2;
  Alcotest.(check int) "same blackholes" b1 b2;
  Alcotest.(check int) "same retransmissions" rtx1 rtx2;
  Alcotest.(check (list int)) "same reconvergence" rc1 rc2

let overload_conserves_bytes () =
  (* Six senders incast 60 Gbps into a node with 40 Gbps of in-capacity
     through 4-packet queues: tail drops are certain, yet retransmission
     completes every flow and every payload byte is accounted for. *)
  let topo = Topology.torus [| 3; 3 |] in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      queue_capacity = 6_000;
      seed = 5;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  for i = 1 to 6 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:0 ~size:60_000)
  done;
  Sim.R2c2_sim.run_engine t;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "queues overflowed" true (r.drops > 0);
  Alcotest.(check int) "every flow completes" 6 (Sim.Metrics.completed_count r.metrics);
  Alcotest.(check (list int)) "no aborts" [] r.aborted_flows;
  Alcotest.(check int) "nothing blackholed" 0 r.blackholed_payload;
  conservation r

let goodput_series_accounts_all_bytes () =
  let t = permutation_sim ~size:50_000 () in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics t) ~bucket_ns:10_000;
  Sim.R2c2_sim.run_engine t;
  let series = Sim.Metrics.goodput_series (Sim.R2c2_sim.metrics t) in
  let total = Array.fold_left (fun acc (_, b) -> acc + b) 0 series in
  Alcotest.(check int) "series sums to the delivered payload" (16 * 50_000) total;
  let sorted = ref true in
  for i = 1 to Array.length series - 1 do
    if fst series.(i - 1) >= fst series.(i) then sorted := false
  done;
  Alcotest.(check bool) "buckets in time order" true !sorted

(* -- Stack control-plane response ------------------------------------------- *)

let stack_notify_drops_dead_endpoints () =
  let st = R2c2.Stack.create ~seed:3 (Topology.torus [| 4; 4 |]) in
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let b = R2c2.Stack.open_flow st ~src:1 ~dst:2 in
  let c = R2c2.Stack.open_flow st ~src:2 ~dst:9 in
  Topology.fail_node (R2c2.Stack.topology st) 2;
  let dropped = R2c2.Stack.notify_failure st in
  Alcotest.(check (list int)) "dead-endpoint flows dropped, ascending" [ b; c ] dropped;
  let survivors = List.map (fun (id, _, _, _) -> id) (R2c2.Stack.active_flows st) in
  Alcotest.(check (list int)) "survivor remains" [ a ] survivors;
  R2c2.Stack.recompute st;
  Alcotest.(check bool) "survivor reallocated" true ((R2c2.Stack.rate_gbps st a : Util.Units.gbps :> float) > 0.0)

let stack_notify_survives_link_failure () =
  let st = R2c2.Stack.create ~seed:3 (Topology.torus [| 4; 4 |]) in
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:1 in
  R2c2.Stack.recompute st;
  let before = R2c2.Stack.control_bytes_sent st in
  Topology.fail_link (R2c2.Stack.topology st) 0 1;
  let dropped = R2c2.Stack.notify_failure st in
  Alcotest.(check (list int)) "nothing dropped" [] dropped;
  Alcotest.(check bool) "repair + re-announce cost control bytes" true
    (R2c2.Stack.control_bytes_sent st > before);
  R2c2.Stack.recompute st;
  Alcotest.(check bool) "flow re-pathed and reallocated" true ((R2c2.Stack.rate_gbps st a : Util.Units.gbps :> float) > 0.0)

(* A start towards a host the failure cut off is refused before the flow
   takes an id: the next start gets the id it would have had, and the run
   records only the flow that went ahead. *)
let unreachable_start_takes_no_id () =
  let t = Sim.R2c2_sim.create Sim.R2c2_sim.default_config (Topology.torus [| 4; 4 |]) in
  Sim.R2c2_sim.inject_at t ~ns:0 (Fail_node 5);
  Sim.R2c2_sim.run_engine ~until_ns:100_000 t;
  Alcotest.check_raises "unreachable" (Invalid_argument "Routing: destination unreachable")
    (fun () -> ignore (Sim.R2c2_sim.start_flow t ~src:0 ~dst:5 ~size:10_000));
  Alcotest.(check int) "next start takes id 0" 0
    (Sim.R2c2_sim.start_flow t ~src:0 ~dst:1 ~size:10_000);
  Sim.R2c2_sim.run_engine t;
  let m = (Sim.R2c2_sim.results t).metrics in
  Alcotest.(check int) "one flow recorded" 1 (List.length (Sim.Metrics.all m));
  Alcotest.(check int) "and it completed" 1 (Sim.Metrics.completed_count m)

(* The same for the library: an open towards an unreachable host raises
   with nothing changed. *)
let stack_unreachable_open_takes_no_id () =
  let st = R2c2.Stack.create ~seed:3 (Topology.torus [| 4; 4 |]) in
  Topology.fail_node (R2c2.Stack.topology st) 5;
  ignore (R2c2.Stack.notify_failure st);
  Alcotest.check_raises "unreachable" (Invalid_argument "Routing: destination unreachable")
    (fun () -> ignore (R2c2.Stack.open_flow st ~src:0 ~dst:5));
  Alcotest.(check int) "no flow left behind" 0 (List.length (R2c2.Stack.active_flows st));
  let id = R2c2.Stack.open_flow st ~src:0 ~dst:1 in
  Alcotest.(check int) "next open takes id 0" 0 id;
  R2c2.Stack.close_flow st id;
  Alcotest.(check int) "and closes" 0 (List.length (R2c2.Stack.active_flows st))

(* A re-route the new protocol cannot carry is refused before the flow,
   its allocator row or the control plane changes. *)
let stack_refused_reroute_changes_nothing () =
  let st = R2c2.Stack.create ~seed:3 (Topology.torus [| 4; 4 |]) in
  let a = R2c2.Stack.open_flow st ~src:0 ~dst:5 in
  let sent = ref 0 in
  R2c2.Stack.on_broadcast st (fun _ -> incr sent);
  let bytes = R2c2.Stack.control_bytes_sent st in
  Topology.fail_node (R2c2.Stack.topology st) 5;
  Alcotest.check_raises "unreachable" (Invalid_argument "Routing: destination unreachable")
    (fun () -> R2c2.Stack.set_protocol st a Routing.Vlb);
  Alcotest.(check (list string)) "still routed by RPS" [ "RPS" ]
    (List.map (fun (_, _, _, p) -> Routing.protocol_name p) (R2c2.Stack.active_flows st));
  Alcotest.(check int) "no route change announced" 0 !sent;
  Alcotest.(check int) "no control bytes" bytes (R2c2.Stack.control_bytes_sent st)

let suites =
  [
    ("failure.topology", single_link_cases);
    ( "failure.sim",
      [
        tc "link kill loses no flow" link_kill_zero_lost_flows;
        tc "node kill aborts only dead endpoints" node_kill_aborts_only_dead_endpoints;
        tc "failure runs are deterministic" failure_run_deterministic;
        tc "a bad fault is refused when injected" inject_rejects_bad_faults;
        tc "completion callbacks skip aborted flows" callbacks_fire_once_and_never_when_aborted;
        tc "overload conserves every byte" overload_conserves_bytes;
        tc "goodput series accounts all bytes" goodput_series_accounts_all_bytes;
        tc "a start to an unreachable host takes no id" unreachable_start_takes_no_id;
      ] );
    ( "failure.stack",
      [
        tc "notify_failure drops dead endpoints" stack_notify_drops_dead_endpoints;
        tc "notify_failure re-paths around a dead link" stack_notify_survives_link_failure;
        tc "an open to an unreachable host takes no id" stack_unreachable_open_takes_no_id;
        tc "a refused re-route changes nothing" stack_refused_reroute_changes_nothing;
      ] );
  ]
