(* Tests for lib/workload: traffic patterns, flow generation, traces. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

let torus88 = lazy (Topology.torus [| 8; 8 |])

let pattern_unit_injection pattern () =
  let topo = Lazy.force torus88 in
  let flows = Workload.Pattern.flows topo pattern in
  let inject = Array.make 64 0.0 in
  List.iter
    (fun (s, d, demand) ->
      Alcotest.(check bool) "no self flow" true (s <> d);
      Alcotest.(check bool) "positive demand" true (demand > 0.0);
      inject.(s) <- inject.(s) +. demand)
    flows;
  Array.iteri
    (fun v total ->
      (* Permutation patterns may leave fixed points with zero demand. *)
      Alcotest.(check bool)
        (Printf.sprintf "node %d injects <= 1" v)
        true
        (total <= 1.0 +. 1e-9))
    inject

let uniform_covers_all_pairs () =
  let topo = Lazy.force torus88 in
  let flows = Workload.Pattern.flows topo Workload.Pattern.Uniform in
  Alcotest.(check int) "n(n-1) flows" (64 * 63) (List.length flows)

let transpose_is_involution () =
  let topo = Lazy.force torus88 in
  let flows = Workload.Pattern.flows topo Workload.Pattern.Transpose in
  List.iter
    (fun (s, d, _) ->
      Alcotest.(check bool) "transpose pairs back" true
        (List.exists (fun (s', d', _) -> s' = d && d' = s) flows))
    flows

let tornado_shift () =
  let topo = Lazy.force torus88 in
  let flows = Workload.Pattern.flows topo Workload.Pattern.Tornado in
  List.iter
    (fun (s, d, _) ->
      let cs = Topology.coords topo s and cd = Topology.coords topo d in
      Alcotest.(check int) "x shifted by 3" ((cs.(0) + 3) mod 8) cd.(0);
      Alcotest.(check int) "y unchanged" cs.(1) cd.(1))
    flows

let bit_complement_antipodal () =
  let topo = Lazy.force torus88 in
  let flows = Workload.Pattern.flows topo Workload.Pattern.Bit_complement in
  List.iter
    (fun (s, d, _) ->
      let cs = Topology.coords topo s and cd = Topology.coords topo d in
      Alcotest.(check int) "x complement" (7 - cs.(0)) cd.(0);
      Alcotest.(check int) "y complement" (7 - cs.(1)) cd.(1))
    flows

let transpose_rejects_unequal_dims () =
  Alcotest.check_raises "unequal dims"
    (Invalid_argument "Pattern.Transpose: unequal dimensions") (fun () ->
      ignore (Workload.Pattern.flows (Topology.torus [| 4; 8 |]) Workload.Pattern.Transpose))

let adversarial_no_worse_than_known () =
  let ctx = Routing.make (Lazy.force torus88) in
  let _, worst_q = Workload.Pattern.adversarial ctx Routing.Dor ~tries:10 ~seed:3 in
  let tornado =
    U.to_float
      (Congestion.Channel_load.capacity_fraction ctx Routing.Dor
         (Workload.Pattern.flows (Lazy.force torus88) Workload.Pattern.Tornado))
  in
  let worst = U.to_float worst_q in
  Alcotest.(check bool) "worst <= tornado for DOR" true (worst <= tornado +. 1e-9)

(* -- flowgen ------------------------------------------------------------- *)

let pareto_sizes_mean () =
  let rng = Util.Rng.create 3 in
  let n = 200_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total :=
      !total
      +. float_of_int
           (Workload.Flowgen.pareto_size rng ~shape:1.05 ~mean:100_000.0 ~max_size:50_000_000)
  done;
  let mean = !total /. float_of_int n in
  (* Truncation at 50 MB pulls the heavy-tailed mean well below 100 KB;
     it must sit in a plausible band. *)
  Alcotest.(check bool) (Printf.sprintf "mean band (got %.0f)" mean) true
    (mean > 20_000.0 && mean < 120_000.0)

let pareto_mostly_small () =
  (* §5.2: ~95% of flows are smaller than 100 KB. *)
  let rng = Util.Rng.create 5 in
  let n = 50_000 in
  let small = ref 0 in
  for _ = 1 to n do
    if Workload.Flowgen.pareto_size rng ~shape:1.05 ~mean:100_000.0 ~max_size:50_000_000 < 100_000
    then incr small
  done;
  let frac = float_of_int !small /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "~95%% small (got %.3f)" frac) true
    (frac > 0.90 && frac < 0.99)

let poisson_arrival_spacing () =
  let topo = Lazy.force torus88 in
  let rng = Util.Rng.create 7 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:20_000 ~mean_interarrival_ns:1_000.0 in
  let last = List.nth specs 19_999 in
  let span = float_of_int last.Workload.Flowgen.arrival_ns in
  Alcotest.(check bool) "mean spacing ~1us" true
    (abs_float ((span /. 20_000.0) -. 1_000.0) < 50.0);
  (* Sorted by arrival. *)
  let sorted = ref true in
  let prev = ref 0 in
  List.iter
    (fun s ->
      if s.Workload.Flowgen.arrival_ns < !prev then sorted := false;
      prev := s.Workload.Flowgen.arrival_ns)
    specs;
  Alcotest.(check bool) "sorted" true !sorted

let flows_have_valid_endpoints () =
  let topo = Lazy.force torus88 in
  let rng = Util.Rng.create 9 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:5000 ~mean_interarrival_ns:100.0 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "src != dst" true (s.Workload.Flowgen.src <> s.Workload.Flowgen.dst);
      Alcotest.(check bool) "in range" true
        (s.Workload.Flowgen.src >= 0 && s.Workload.Flowgen.src < 64 && s.Workload.Flowgen.dst >= 0
       && s.Workload.Flowgen.dst < 64))
    specs

let permutation_long_flows_distinct () =
  let topo = Lazy.force torus88 in
  for load10 = 1 to 10 do
    let load = float_of_int load10 /. 10.0 in
    let rng = Util.Rng.create (100 + load10) in
    let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load) in
    let expected = int_of_float (Float.round (load *. 64.0)) in
    Alcotest.(check int) "flow count = load * hosts" expected (List.length specs);
    let srcs = List.map (fun s -> s.Workload.Flowgen.src) specs in
    let dsts = List.map (fun s -> s.Workload.Flowgen.dst) specs in
    Alcotest.(check int) "distinct sources" expected (List.length (List.sort_uniq compare srcs));
    Alcotest.(check int) "distinct dests" expected (List.length (List.sort_uniq compare dsts));
    List.iter
      (fun s ->
        Alcotest.(check bool) "no self flow" true (s.Workload.Flowgen.src <> s.Workload.Flowgen.dst))
      specs
  done

let byte_fraction_helpers () =
  let mk size = { Workload.Flowgen.arrival_ns = 0; src = 0; dst = 1; size; weight = 1; priority = 0 } in
  let specs = [ mk 10_000; mk 10_000; mk 80_000; mk 900_000 ] in
  Alcotest.(check (float 1e-9)) "short fraction" 0.75
    (U.to_float (Workload.Flowgen.short_fraction specs ~threshold:100_000));
  Alcotest.(check (float 1e-9)) "bytes in small" 0.1
    (U.to_float (Workload.Flowgen.bytes_in_small specs ~threshold:100_000))

(* -- trace ---------------------------------------------------------------- *)

let trace_roundtrip () =
  let topo = Lazy.force torus88 in
  let rng = Util.Rng.create 11 in
  let specs = Workload.Flowgen.poisson_pareto topo rng ~flows:50 ~mean_interarrival_ns:1000.0 in
  let path = Filename.temp_file "r2c2" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.Trace.save path specs;
      let loaded = Workload.Trace.load path in
      Alcotest.(check bool) "roundtrip" true (loaded = specs))

(* A trace holds arrivals only: any other line is refused. *)
let trace_rejects_departures () =
  let path = Filename.temp_file "r2c2" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc "A 0 0 1 1 1 0\nD 30 0\n");
      Alcotest.check_raises "departure line" (Failure "Trace.load: malformed line: D 30 0")
        (fun () -> ignore (Workload.Trace.load path)))

let suites =
  [
    ( "workload.pattern",
      [
        tc "uniform injects <= 1 per node" (pattern_unit_injection Workload.Pattern.Uniform);
        tc "NN injects <= 1 per node" (pattern_unit_injection Workload.Pattern.Nearest_neighbor);
        tc "tornado injects <= 1 per node" (pattern_unit_injection Workload.Pattern.Tornado);
        tc "uniform covers all pairs" uniform_covers_all_pairs;
        tc "transpose is an involution" transpose_is_involution;
        tc "tornado shifts half-way minus one" tornado_shift;
        tc "bit complement antipodal" bit_complement_antipodal;
        tc "transpose needs equal dims" transpose_rejects_unequal_dims;
        tc "adversarial search beats known adversary" adversarial_no_worse_than_known;
      ] );
    ( "workload.flowgen",
      [
        tc "pareto mean in band" pareto_sizes_mean;
        tc "~95% of flows are small" pareto_mostly_small;
        tc "poisson spacing and ordering" poisson_arrival_spacing;
        tc "valid endpoints" flows_have_valid_endpoints;
        tc "permutation long flows distinct" permutation_long_flows_distinct;
        tc "byte-fraction helpers" byte_fraction_helpers;
      ] );
    ( "workload.trace",
      [
        tc "save/load roundtrip" trace_roundtrip;
        tc "a departure line is malformed" trace_rejects_departures;
      ] );
  ]
