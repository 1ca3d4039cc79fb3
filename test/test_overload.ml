(* Overload control end to end: the PAUSE wire format, the admission and
   pacing state machines, queue-watermark detection in the fabric, the
   per-class latency histograms and SLO accounting, the waterfill class
   reserve, the incast workload generator, and the full simulator loop
   shedding and pacing under a 5x incast. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units
module Ov = Congestion.Overload

(* -- wire: PAUSE ---------------------------------------------------------- *)

let pause_roundtrip () =
  let p = { Wire.pnode = 317; pclass = 5; plevel = 9; pwindow_kbps = 1_000_000 } in
  let b = Wire.encode_pause p in
  Alcotest.(check int) "size" Wire.pause_size (Bytes.length b);
  match Wire.decode_pause b with
  | Ok q ->
      Alcotest.(check int) "node" p.Wire.pnode q.Wire.pnode;
      Alcotest.(check int) "class" p.Wire.pclass q.Wire.pclass;
      Alcotest.(check int) "level" p.Wire.plevel q.Wire.plevel;
      Alcotest.(check int) "window" p.Wire.pwindow_kbps q.Wire.pwindow_kbps
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let pause_corruption_detected () =
  let b = Wire.encode_pause { Wire.pnode = 12; pclass = 1; plevel = 2; pwindow_kbps = 0 } in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy b in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
      match Wire.decode_pause c with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "bit flip %d:%d undetected" i bit)
    done
  done

(* -- admission state machine ---------------------------------------------- *)

let admission_sheds_lowest_first () =
  let a = Ov.Admission.create ~max_priority:7 () in
  Alcotest.(check int) "floor starts above all classes" 8 (Ov.Admission.shed_floor a);
  Alcotest.(check bool) "not shedding" false (Ov.Admission.shedding a);
  Ov.Admission.note_epoch a ~overloaded:true;
  Alcotest.(check int) "class 7 refused first" 7 (Ov.Admission.shed_floor a);
  Alcotest.(check bool) "7 refused" false (Ov.Admission.admits a ~priority:7);
  Alcotest.(check bool) "6 admitted" true (Ov.Admission.admits a ~priority:6);
  Ov.Admission.note_epoch a ~overloaded:true;
  Ov.Admission.note_epoch a ~overloaded:true;
  Alcotest.(check int) "escalates one class per epoch" 5 (Ov.Admission.shed_floor a)

let admission_never_sheds_class0 () =
  let a = Ov.Admission.create ~max_priority:7 () in
  for _ = 1 to 50 do
    Ov.Admission.note_epoch a ~overloaded:true
  done;
  Alcotest.(check int) "floor pinned at 1" 1 (Ov.Admission.shed_floor a);
  Alcotest.(check bool) "class 0 always admitted" true (Ov.Admission.admits a ~priority:0)

let admission_hysteresis () =
  let a = Ov.Admission.create ~max_priority:7 () in
  Ov.Admission.note_epoch a ~overloaded:true;
  Ov.Admission.note_epoch a ~overloaded:true;
  Alcotest.(check int) "two classes shed" 6 (Ov.Admission.shed_floor a);
  (* Two clean epochs are not enough; an overloaded one resets the count. *)
  Ov.Admission.note_epoch a ~overloaded:false;
  Ov.Admission.note_epoch a ~overloaded:false;
  Alcotest.(check int) "still shed after 2 clean" 6 (Ov.Admission.shed_floor a);
  Ov.Admission.note_epoch a ~overloaded:true;
  Alcotest.(check int) "relapse re-escalates" 5 (Ov.Admission.shed_floor a);
  for _ = 1 to 3 do
    Ov.Admission.note_epoch a ~overloaded:false
  done;
  Alcotest.(check int) "3 clean epochs re-admit one class" 6 (Ov.Admission.shed_floor a);
  for _ = 1 to 9 do
    Ov.Admission.note_epoch a ~overloaded:false
  done;
  Alcotest.(check int) "full recovery" 8 (Ov.Admission.shed_floor a);
  Ov.Admission.reset a;
  Alcotest.(check bool) "reset" false (Ov.Admission.shedding a)

(* -- pacer state machine -------------------------------------------------- *)

let check_float msg a b = Alcotest.(check (float 1e-9)) msg a b

let pacer_aimd () =
  let p = Ov.Pacer.create ~backoff:0.5 ~recovery:0.25 ~min_scale:0.05 () in
  check_float "starts at full rate" 1.0 (Ov.Pacer.scale p);
  Ov.Pacer.note_pause p ~level:1;
  check_float "one level halves" 0.5 (Ov.Pacer.scale p);
  Ov.Pacer.note_pause p ~level:2;
  check_float "level 2 quarters" 0.125 (Ov.Pacer.scale p);
  Ov.Pacer.note_pause p ~level:0;
  check_float "level 0 is a no-op" 0.125 (Ov.Pacer.scale p);
  Ov.Pacer.note_clean_epoch p;
  check_float "additive recovery" 0.375 (Ov.Pacer.scale p);
  for _ = 1 to 10 do
    Ov.Pacer.note_clean_epoch p
  done;
  check_float "recovery capped at 1" 1.0 (Ov.Pacer.scale p);
  for _ = 1 to 30 do
    Ov.Pacer.note_pause p ~level:1
  done;
  check_float "floored at min_scale" 0.05 (Ov.Pacer.scale p);
  Ov.Pacer.reset p;
  check_float "reset" 1.0 (Ov.Pacer.scale p);
  Alcotest.check_raises "negative level" (Invalid_argument "Overload.Pacer: negative pause level")
    (fun () -> Ov.Pacer.note_pause p ~level:(-1))

(* -- net: queue watermarks ------------------------------------------------ *)

let mk_net ?queue_capacity () =
  let eng = Sim.Engine.create () in
  let topo = Topology.torus [| 4; 4 |] in
  let net = Sim.Net.create eng topo ?queue_capacity ~link_gbps:Topology.link_gbps () in
  (eng, topo, net)

let send_data net ~flow ~bytes verts =
  let r = Sim.Net.intern_route net verts in
  Sim.Net.send_data net ~flow ~seq:0 ~last:true ~bytes ~route:r;
  Sim.Net.release_route net r

let watermark_hysteresis () =
  let eng, _, net = mk_net () in
  Sim.Net.set_queue_watermarks net ~high:3_000 ~low:500;
  Alcotest.(check int) "idle fabric clean" 0 (Sim.Net.overloaded_links net);
  (* Four 1500 B packets down the same first hop: ~4.5 KB of standing
     queue behind the serializing head packet crosses the high mark. *)
  let seen_over = ref false in
  Sim.Net.on_deliver net (fun _ ->
      if Sim.Net.overloaded_links net > 0 then seen_over := true);
  for _ = 1 to 4 do
    send_data net ~flow:1 ~bytes:1500 [| 0; 1 |]
  done;
  Alcotest.(check bool) "flagged while queued" true (Sim.Net.overloaded_links net > 0);
  Sim.Engine.run eng;
  (* The flag persists down to the low watermark, then clears: a drained
     fabric must end clean. *)
  Alcotest.(check bool) "was flagged during drain" true !seen_over;
  Alcotest.(check int) "clears once drained" 0 (Sim.Net.overloaded_links net)

let watermark_rearm_revaluates_standing_queues () =
  let _, _, net = mk_net () in
  for _ = 1 to 4 do
    send_data net ~flow:1 ~bytes:1500 [| 0; 1 |]
  done;
  Alcotest.(check int) "unarmed: nothing flagged" 0 (Sim.Net.overloaded_links net);
  (* Arming after the queue built must flag it immediately. *)
  Sim.Net.set_queue_watermarks net ~high:3_000 ~low:500;
  Alcotest.(check bool) "standing queue flagged on arm" true
    (Sim.Net.overloaded_links net > 0);
  Alcotest.check_raises "low >= high rejected"
    (Invalid_argument "Net.set_queue_watermarks: low must be in [0, high)") (fun () ->
      Sim.Net.set_queue_watermarks net ~high:100 ~low:100)

let pause_packet_delivery () =
  let eng, _, net = mk_net () in
  let got = ref None in
  Sim.Net.on_deliver net (fun pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_pause then
        got :=
          Some
            ( Sim.Net.pause_node net pkt,
              Sim.Net.pause_class net pkt,
              Sim.Net.pause_level net pkt,
              Sim.Net.pause_window net pkt ));
  let r = Sim.Net.intern_route net [| 1; 0 |] in
  Sim.Net.send_pause net ~node:1 ~cls:2 ~level:3 ~window_kbps:4_000 ~bytes:Wire.pause_size
    ~route:r;
  Sim.Net.release_route net r;
  Sim.Engine.run eng;
  Alcotest.(check (option (pair (pair int int) (pair int int))))
    "pause fields ride the fabric"
    (Some ((1, 2), (3, 4_000)))
    (Option.map (fun (a, b, c, d) -> ((a, b), (c, d))) !got)

(* -- metrics: per-class histograms and SLO accounting --------------------- *)

let mk_metrics () = Sim.Metrics.create ()

let hist_percentile_tracks_stats () =
  let m = mk_metrics () in
  let rng = Util.Rng.create 99 in
  (* Log-uniform FCTs across 5 decades stress every octave band. *)
  let fcts =
    Array.init 500 (fun _ -> int_of_float (10.0 ** (2.0 +. Util.Rng.float rng 5.0)))
  in
  Array.iteri
    (fun i fct ->
      Sim.Metrics.add_flow m ~priority:2 ~id:i ~src:0 ~dst:1 ~size:100 ~arrival_ns:0;
      ignore (Sim.Metrics.record_delivery m ~id:i ~seq:0 ~payload:100 ~now:fct))
    fcts;
  let exact = Array.map float_of_int fcts in
  List.iter
    (fun p ->
      let h = Sim.Metrics.class_percentile m ~priority:2 p in
      let s = Util.Stats.percentile exact p in
      (* HDR layout with 32 sub-buckets: relative quantization error < ~3%. *)
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 3%% (hist %.0f vs exact %.0f)" p h s)
        true
        (abs_float (h -. s) /. s < 0.03))
    [ 10.0; 50.0; 90.0; 99.0; 99.9 ]

let slo_attainment_exact () =
  let m = mk_metrics () in
  Sim.Metrics.set_slo m ~priority:0 ~bound_ns:1_000;
  Alcotest.(check int) "bound readable" 1_000 (Sim.Metrics.slo_bound m ~priority:0);
  check_float "vacuously 1 before completions" 1.0 (Sim.Metrics.slo_attainment m ~priority:0);
  (* 3 within (one exactly at the bound), 1 beyond. *)
  List.iteri
    (fun i fct ->
      Sim.Metrics.add_flow m ~id:i ~src:0 ~dst:1 ~size:10 ~arrival_ns:0;
      ignore (Sim.Metrics.record_delivery m ~id:i ~seq:0 ~payload:10 ~now:fct))
    [ 400; 999; 1_000; 1_001 ];
  Alcotest.(check int) "class count" 4 (Sim.Metrics.class_completed m ~priority:0);
  check_float "exactly 3/4 within bound" 0.75 (Sim.Metrics.slo_attainment m ~priority:0);
  (* A class without an SLO attains trivially; classes are independent. *)
  Sim.Metrics.add_flow m ~priority:3 ~id:9 ~src:0 ~dst:1 ~size:10 ~arrival_ns:0;
  ignore (Sim.Metrics.record_delivery m ~id:9 ~seq:0 ~payload:10 ~now:999_999);
  check_float "no-SLO class attains 1" 1.0 (Sim.Metrics.slo_attainment m ~priority:3);
  check_float "class 0 unchanged" 0.75 (Sim.Metrics.slo_attainment m ~priority:0);
  Alcotest.check_raises "class out of range"
    (Invalid_argument "Metrics.set_slo: class out of range") (fun () ->
      Sim.Metrics.set_slo m ~priority:Sim.Metrics.max_class ~bound_ns:5);
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Metrics.set_slo: non-positive bound") (fun () ->
      Sim.Metrics.set_slo m ~priority:1 ~bound_ns:0)

let fcts_filter_by_priority () =
  let m = mk_metrics () in
  List.iter
    (fun (id, priority, fct) ->
      Sim.Metrics.add_flow m ~priority ~id ~src:0 ~dst:1 ~size:10 ~arrival_ns:0;
      ignore (Sim.Metrics.record_delivery m ~id ~seq:0 ~payload:10 ~now:fct))
    [ (0, 0, 1_000); (1, 3, 2_000); (2, 0, 3_000); (3, 5, 4_000) ];
  Alcotest.(check int) "unfiltered sees all" 4 (Array.length (Sim.Metrics.fcts_us m));
  let c0 = Sim.Metrics.fcts_us ~priority:0 m in
  Alcotest.(check int) "class 0 only" 2 (Array.length c0);
  check_float "first" 1.0 c0.(0);
  check_float "second" 3.0 c0.(1);
  Alcotest.(check int) "class 5 only" 1 (Array.length (Sim.Metrics.fcts_us ~priority:5 m))

let goodput_bucket_edges () =
  let m = mk_metrics () in
  Sim.Metrics.set_goodput_bucket m ~bucket_ns:1_000;
  Sim.Metrics.add_flow m ~id:0 ~src:0 ~dst:1 ~size:400 ~arrival_ns:0;
  (* Deliveries at 999 / 1000 / 1999 / 2000: bucket starts are inclusive,
     so the edge samples land in the younger bucket, never both. *)
  List.iteri
    (fun seq now -> ignore (Sim.Metrics.record_delivery m ~id:0 ~seq ~payload:100 ~now))
    [ 999; 1_000; 1_999; 2_000 ];
  Alcotest.(check (list (pair int int)))
    "edge deliveries bucket inclusively"
    [ (0, 100); (1_000, 200); (2_000, 100) ]
    (Array.to_list (Sim.Metrics.goodput_series m))

let note_rejoin_validates () =
  let m = mk_metrics () in
  Sim.Metrics.note_rejoin m ~node:3 ~start:100 ~finish:100;
  Alcotest.(check (list (triple int int int)))
    "zero-length rejoin allowed"
    [ (3, 100, 100) ]
    (Sim.Metrics.rejoin_samples m);
  Alcotest.check_raises "finish < start rejected"
    (Invalid_argument "Metrics.note_rejoin: finish < start") (fun () ->
      Sim.Metrics.note_rejoin m ~node:3 ~start:100 ~finish:99)

let hist_recording_allocation_free () =
  (* The flow lookup costs a couple of minor words per delivery (find_opt's
     [Some]); the completion path — histogram bucketing plus SLO counters —
     must add {e nothing} on top of that pre-existing baseline. *)
  let n = 4_000 in
  let per_delivery ~complete =
    let m = mk_metrics () in
    for c = 0 to Sim.Metrics.max_class - 1 do
      Sim.Metrics.set_slo m ~priority:c ~bound_ns:1_000
    done;
    if complete then
      for i = 0 to n - 1 do
        Sim.Metrics.add_flow m ~priority:(i mod Sim.Metrics.max_class) ~id:i ~src:0 ~dst:1
          ~size:100 ~arrival_ns:0
      done
    else Sim.Metrics.add_flow m ~id:0 ~src:0 ~dst:1 ~size:max_int ~arrival_ns:0;
    ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:0 ~payload:100 ~now:500);
    let before = Gc.minor_words () in
    if complete then
      for i = 1 to n - 1 do
        ignore (Sim.Metrics.record_delivery m ~id:i ~seq:0 ~payload:100 ~now:(500 + i))
      done
    else
      for s = 1 to n - 1 do
        ignore (Sim.Metrics.record_delivery m ~id:0 ~seq:s ~payload:100 ~now:(500 + s))
      done;
    (Gc.minor_words () -. before) /. float_of_int (n - 1)
  in
  let base = per_delivery ~complete:false in
  let compl = per_delivery ~complete:true in
  Alcotest.(check bool)
    (Printf.sprintf "completion adds %.3f words over the %.3f/delivery baseline"
       (compl -. base) base)
    true
    (compl -. base < 0.1)

(* -- waterfill class reserve ---------------------------------------------- *)

let class_reserve_withholds_slice () =
  (* The waterfill already serves classes in strict priority order, so the
     reserve's job is the case where the high class is {e absent}: keep a
     slice of every link free so a class-0 burst finds instant headroom
     instead of a link the background filled wall to wall. *)
  let capacities = [| U.byte_rate 10.0 |] in
  let links = Routing.row ~links:[| 0 |] ~fracs:[| U.fraction 1.0 |] in
  let rate_of ~priority ~reserve =
    let inc = Congestion.Waterfill.Inc.create ~capacities () in
    Congestion.Waterfill.Inc.set_class_reserve inc ~priority:1 ~reserve:(U.fraction reserve);
    Congestion.Waterfill.Inc.add_flow inc ~id:0 ~priority links;
    Congestion.Waterfill.Inc.allocate inc;
    U.to_float (Congestion.Waterfill.Inc.rate inc ~id:0)
  in
  let lo0 = rate_of ~priority:3 ~reserve:0.0 in
  let lo = rate_of ~priority:3 ~reserve:0.4 in
  check_float "low class loses exactly the reserved slice" 4.0 (lo0 -. lo);
  Alcotest.(check bool) "still forwards" true (lo > 0.0);
  check_float "high class untouched by the reserve"
    (rate_of ~priority:0 ~reserve:0.0)
    (rate_of ~priority:0 ~reserve:0.4);
  let inc = Congestion.Waterfill.Inc.create ~capacities () in
  Alcotest.check_raises "reserve >= 1 rejected"
    (Invalid_argument "Waterfill: class reserve out of range") (fun () ->
      Congestion.Waterfill.Inc.set_class_reserve inc ~priority:1 ~reserve:(U.fraction 1.0))

(* -- flowgen: partition/aggregate incast ---------------------------------- *)

let partition_aggregate_shape () =
  let topo = Topology.torus [| 4; 4 |] in
  let specs =
    Workload.Flowgen.partition_aggregate ~priority:1 topo (Util.Rng.create 7) ~aggregators:2
      ~fanout:5 ~rounds:3 ~round_interval_ns:1_000
  in
  Alcotest.(check int) "aggregators * fanout * rounds" 30 (List.length specs);
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      Alcotest.(check bool) "worker <> aggregator" true (s.src <> s.dst);
      Alcotest.(check bool) "round-aligned arrival" true (s.arrival_ns mod 1_000 = 0);
      Alcotest.(check int) "priority tagged" 1 s.priority;
      Alcotest.(check int) "response size" 20_000 s.size)
    specs;
  (* One synchronized volley per (round, aggregator): each round has
     exactly aggregators * fanout arrivals, and the aggregator set is
     fixed across rounds. *)
  let dsts r =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (s : Workload.Flowgen.spec) ->
           if s.arrival_ns = r * 1_000 then Some s.dst else None)
         specs)
  in
  Alcotest.(check (list int)) "same aggregators every round" (dsts 0) (dsts 2);
  Alcotest.(check int) "two aggregators" 2 (List.length (dsts 0));
  let again =
    Workload.Flowgen.partition_aggregate ~priority:1 topo (Util.Rng.create 7) ~aggregators:2
      ~fanout:5 ~rounds:3 ~round_interval_ns:1_000
  in
  Alcotest.(check bool) "deterministic in the seed" true (specs = again)

let partition_aggregate_validates () =
  let topo = Topology.torus [| 4; 4 |] in
  let rng = Util.Rng.create 1 in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Flowgen.partition_aggregate: fanout out of [1, hosts - 1]" (fun () ->
      ignore
        (Workload.Flowgen.partition_aggregate topo rng ~aggregators:1 ~fanout:16 ~rounds:1
           ~round_interval_ns:0));
  expect "Flowgen.partition_aggregate: aggregators out of [1, hosts]" (fun () ->
      ignore
        (Workload.Flowgen.partition_aggregate topo rng ~aggregators:0 ~fanout:3 ~rounds:1
           ~round_interval_ns:0));
  expect "Flowgen.partition_aggregate: rounds < 1" (fun () ->
      ignore
        (Workload.Flowgen.partition_aggregate topo rng ~aggregators:1 ~fanout:3 ~rounds:0
           ~round_interval_ns:0))

(* -- simulator: shedding and pacing under incast -------------------------- *)

let overload_cfg ~on =
  {
    Sim.R2c2_sim.default_config with
    recompute_interval_ns = 20_000;
    queue_high_watermark = (if on then 10_000 else max_int);
    queue_low_watermark = 2_000;
    overload_control = on;
    seed = 11;
  }

let mk_overload_sim ~on =
  let topo = Topology.torus [| 3; 3 |] in
  let t = Sim.R2c2_sim.create (overload_cfg ~on) topo in
  Sim.Metrics.set_slo (Sim.R2c2_sim.metrics t) ~priority:0 ~bound_ns:2_000_000;
  let rng = Util.Rng.create 5 in
  let bg =
    Workload.Flowgen.poisson_pareto ~priority:3 ~max_size:300_000 topo rng ~flows:60
      ~mean_interarrival_ns:4_000.0
  in
  let incast =
    Workload.Flowgen.partition_aggregate ~priority:0 topo rng ~aggregators:2 ~fanout:6
      ~rounds:3 ~round_interval_ns:60_000
  in
  (t, bg, incast)

let sim_sheds_and_paces_under_incast () =
  let t, bg, incast = mk_overload_sim ~on:true in
  let report =
    Sim.Scenario.run
      ~invariants:
        [
          Sim.Scenario.Byte_conservation;
          Sim.Scenario.Slo_attainment { priority = 0; min_attainment = 0.99 };
          Sim.Scenario.Tail_latency { priority = 0; percentile = 99.9; max_ns = 2_000_000 };
        ]
      t
      [ Sim.Scenario.surge ~at:0 bg; Sim.Scenario.surge ~at:30_000 incast ]
  in
  Alcotest.(check (list string)) "no violations" [] report.Sim.Scenario.violations;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check bool) "overload detected" true (r.overload_epochs > 0);
  Alcotest.(check bool) "background shed" true (r.shed_flows > 0);
  Alcotest.(check bool) "shed payload accounted" true (r.shed_payload > 0);
  (* Every class-0 flow completes (never shed), every background flow is
     either completed or shed — nothing is silently lost. *)
  let m = r.metrics in
  Alcotest.(check int) "class 0 all complete" (List.length incast)
    (Sim.Metrics.class_completed m ~priority:0);
  Alcotest.(check int) "background accounted"
    (List.length bg)
    (Sim.Metrics.class_completed m ~priority:3 + r.shed_flows);
  Alcotest.(check int) "payload conserved" r.injected_payload
    (r.delivered_payload + r.dropped_payload + r.blackholed_payload);
  Alcotest.(check int) "fabric drained" 0 r.overloaded_links

let sim_overload_default_off () =
  (* With the controller off the same workload runs ungated: no epochs,
     sheds or pauses, and the introspection accessors report neutral. *)
  let t, bg, incast = mk_overload_sim ~on:false in
  Sim.Scenario.run ~invariants:[ Sim.Scenario.Byte_conservation ] t
    [ Sim.Scenario.surge ~at:0 bg; Sim.Scenario.surge ~at:30_000 incast ]
  |> ignore;
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Alcotest.(check int) "no epochs" 0 r.overload_epochs;
  Alcotest.(check int) "no sheds" 0 r.shed_flows;
  Alcotest.(check int) "no pauses" 0 (r.pauses_sent + r.pauses_received);
  Alcotest.(check int) "floor neutral" Sim.Metrics.max_class (Sim.R2c2_sim.shed_floor t);
  check_float "pacer neutral" 1.0 (Sim.R2c2_sim.pacer_scale t ~node:0);
  Alcotest.(check int) "all flows ran"
    (List.length bg + List.length incast)
    (Sim.Metrics.completed_count r.metrics)

let sim_class_reserve_both_modes () =
  (* The reserve belongs to the simulator's one allocator, so it holds in
     both control modes: a lone class-1 flow to a neighbour gets its one
     link less the 5% headroom and the 20% slice kept for class 0. *)
  let rate control =
    let cfg = { (overload_cfg ~on:true) with control } in
    let t = Sim.R2c2_sim.create cfg (Topology.torus [| 4; 4 |]) in
    ignore (Sim.R2c2_sim.start_flow ~priority:1 t ~src:0 ~dst:1 ~size:10_000_000);
    Sim.R2c2_sim.run_engine ~until_ns:100_000 t;
    match List.rev (Sim.R2c2_sim.results t).rate_updates with
    | (_, gbps) :: _ -> U.to_float gbps
    | [] -> Alcotest.fail "no rate epoch ran"
  in
  check_float "Global_epoch" 7.5 (rate Sim.R2c2_sim.Global_epoch);
  check_float "Per_node" 7.5 (rate Sim.R2c2_sim.Per_node)

let scenario_slo_invariant_fires () =
  (* An unattainable bound must trip both latency monitors. *)
  let t, bg, _ = mk_overload_sim ~on:false in
  let violations = ref [] in
  Sim.Scenario.run
    ~on_violation:(fun m -> violations := m :: !violations)
    ~invariants:
      [
        Sim.Scenario.Slo_attainment { priority = 3; min_attainment = 1.1 };
        Sim.Scenario.Tail_latency { priority = 3; percentile = 50.0; max_ns = 1 };
      ]
    t
    [ Sim.Scenario.surge ~at:0 bg ]
  |> ignore;
  Alcotest.(check int) "both monitors fired" 2 (List.length !violations)

let suites =
  [
    ( "overload.wire",
      [ tc "pause roundtrip" pause_roundtrip; tc "pause corruption" pause_corruption_detected ]
    );
    ( "overload.admission",
      [
        tc "sheds lowest class first" admission_sheds_lowest_first;
        tc "class 0 never shed" admission_never_sheds_class0;
        tc "hysteresis on recovery" admission_hysteresis;
      ] );
    ("overload.pacer", [ tc "multiplicative decrease, additive recovery" pacer_aimd ]);
    ( "overload.net",
      [
        tc "watermark hysteresis" watermark_hysteresis;
        tc "arming re-evaluates standing queues" watermark_rearm_revaluates_standing_queues;
        tc "pause packets ride the fabric" pause_packet_delivery;
      ] );
    ( "overload.metrics",
      [
        tc "class percentiles track exact stats" hist_percentile_tracks_stats;
        tc "slo attainment is exact" slo_attainment_exact;
        tc "fcts filter by priority" fcts_filter_by_priority;
        tc "goodput bucket edges" goodput_bucket_edges;
        tc "note_rejoin validates" note_rejoin_validates;
        tc "completion recording allocation-free" hist_recording_allocation_free;
      ] );
    ("overload.waterfill", [ tc "class reserve withholds a slice" class_reserve_withholds_slice ]);
    ( "overload.flowgen",
      [
        tc "partition/aggregate shape" partition_aggregate_shape;
        tc "partition/aggregate validation" partition_aggregate_validates;
      ] );
    ( "overload.sim",
      [
        tc "sheds and paces under incast" sim_sheds_and_paces_under_incast;
        tc "default-off is inert" sim_overload_default_off;
        tc "Per_node honours the class reserve" sim_class_reserve_both_modes;
        tc "slo invariants fire" scenario_slo_invariant_fires;
      ] );
  ]
