(* Bechamel micro-benchmarks of the stack's core primitives (§4.2):
   rate computation, link-fraction DP, wire encode/decode, broadcast-tree
   construction and one GA generation. One Test.make per experiment
   family. *)

open Bechamel
open Toolkit

let topo = lazy (Topology.torus [| 8; 8; 8 |])

(* One recompute of a held allocator over random RPS flows (the inputs of
   ablation E): clear, refill keyed by slot, allocate. *)
let test_waterfill n =
  Test.make
    ~name:(Printf.sprintf "waterfill-%d-flows" n)
    (Staged.stage
       (let capacities, flows = Experiments.waterfill_inputs ~seed:3 n in
        let alloc = Congestion.Waterfill.Inc.create ~headroom:Topology.headroom ~capacities () in
        fun () -> Experiments.refill_allocate alloc flows))

let test_fractions proto =
  Test.make
    ~name:(Printf.sprintf "fractions-%s" (Routing.protocol_name proto))
    (Staged.stage
       (let topo = Lazy.force topo in
        let rng = Util.Rng.create 5 in
        let h = Topology.host_count topo in
        fun () ->
          (* A fresh context per call: each row also pays for the
             ingredients its context caches (VLB's per-endpoint sums, WLB's
             waypoint weights) and for the context's scratch. *)
          let ctx = Routing.make topo in
          let src = Util.Rng.int rng h in
          let dst = (src + (h / 2)) mod h in
          ignore (Routing.fractions ctx proto ~src ~dst)))

let test_wire_roundtrip =
  Test.make ~name:"wire-data-roundtrip"
    (Staged.stage
       (let header =
          {
            Wire.flow = 42;
            src = 17;
            dst = 391;
            seq = 12345;
            plen = 1465;
            route = Array.init 12 (fun i -> i mod 6);
            ridx = 0;
          }
        in
        fun () ->
          match Wire.decode_data (Wire.encode_data header) with
          | Ok _ -> ()
          | Error e -> failwith e))

let test_broadcast_tree =
  Test.make ~name:"broadcast-tree-build"
    (Staged.stage
       (let topo = Lazy.force topo in
        let i = ref 0 in
        fun () ->
          incr i;
          let b = Broadcast.make ~trees_per_source:1 topo in
          ignore (Broadcast.depth b ~src:(!i mod Topology.host_count topo) ~tree:0)))

let test_ga_generation =
  Test.make ~name:"ga-generation-32-flows"
    (Staged.stage
       (let topo = Topology.torus [| 4; 4; 4 |] in
        let ctx = Routing.make topo in
        let selector = Genetic.Selector.make ctx ~link_gbps:Topology.link_gbps in
        let rng = Util.Rng.create 9 in
        let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(Util.Units.fraction 0.5) in
        let flows =
          Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
        in
        let init = Array.make (Array.length flows) Routing.Rps in
        fun () ->
          ignore
            (Genetic.Selector.select ~pop_size:8 ~generations:1 selector rng ~flows ~init)))

let tests () =
  Test.make_grouped ~name:"r2c2"
    [
      test_waterfill 100;
      test_waterfill 500;
      test_fractions Routing.Rps;
      test_fractions Routing.Dor;
      test_wire_roundtrip;
      test_broadcast_tree;
      test_ga_generation;
    ]

let run () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  Util.Tbl.iter_sorted ~cmp:String.compare
    (fun _instance tbl ->
      let rows = Util.Tbl.fold_sorted ~cmp:String.compare (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Printf.printf "%-40s %16.0f\n" name est
          | _ -> Printf.printf "%-40s %16s\n" name "n/a")
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows))
    results
