(* Tests for lib/genetic: GA machinery and routing-protocol selection. *)

let tc name f = Alcotest.test_case name `Quick f

(* A simple separable fitness the GA must crack: maximize sum of genes
   matching a hidden target. *)
let onemax_problem target =
  {
    Genetic.Ga.genes = Array.length target;
    choices = 4;
    fitness =
      (fun g ->
        let score = ref 0 in
        Array.iteri (fun i x -> if x = target.(i) then incr score) g;
        float_of_int !score);
  }

let ga_solves_onemax () =
  let rng = Util.Rng.create 3 in
  let target = Array.init 24 (fun i -> i mod 4) in
  let p = onemax_problem target in
  let best, fit = Genetic.Ga.optimize ~generations:60 ~patience:60 rng p ~init:(Array.make 24 0) in
  Alcotest.(check bool) (Printf.sprintf "near optimal (%.0f/24)" fit) true (fit >= 22.0);
  Alcotest.(check int) "genotype length preserved" 24 (Array.length best)

let ga_keeps_init_when_optimal () =
  let rng = Util.Rng.create 5 in
  let target = Array.init 10 (fun i -> i mod 4) in
  let p = onemax_problem target in
  let _, fit = Genetic.Ga.optimize ~generations:5 rng p ~init:(Array.copy target) in
  Alcotest.(check (float 1e-9)) "elite preserves the optimum" 10.0 fit

let ga_empty_genotype () =
  let rng = Util.Rng.create 7 in
  let p = { Genetic.Ga.genes = 0; choices = 2; fitness = (fun _ -> 1.0) } in
  let best, fit = Genetic.Ga.optimize rng p ~init:[||] in
  Alcotest.(check int) "empty" 0 (Array.length best);
  Alcotest.(check (float 1e-9)) "fitness evaluated" 1.0 fit

let hill_climb_improves () =
  let rng = Util.Rng.create 9 in
  let target = Array.init 16 (fun i -> (i * 3) mod 4) in
  let p = onemax_problem target in
  let init = Array.make 16 0 in
  let _, fit = Genetic.Ga.hill_climb ~iterations:2000 rng p ~init in
  Alcotest.(check bool) "reaches optimum on separable problem" true (fit >= 15.0)

let annealing_improves () =
  let rng = Util.Rng.create 11 in
  let target = Array.init 16 (fun i -> (i * 7) mod 4) in
  let p = onemax_problem target in
  let _, fit = Genetic.Ga.simulated_annealing ~iterations:3000 rng p ~init:(Array.make 16 0) in
  Alcotest.(check bool) (Printf.sprintf "improves (%.0f)" fit) true (fit >= 12.0)

let random_search_bounded () =
  let rng = Util.Rng.create 13 in
  let p = { Genetic.Ga.genes = 8; choices = 2; fitness = (fun g -> float_of_int (Array.fold_left ( + ) 0 g)) } in
  let _, fit = Genetic.Ga.random_search ~iterations:500 rng p in
  Alcotest.(check bool) "finds a good genotype" true (fit >= 6.0)

(* -- selector (Fig 18 mechanics) ------------------------------------------- *)

let selector_ctx = lazy (Routing.make (Topology.torus [| 4; 4; 4 |]))

module U = Util.Units

let mk_selector () = Genetic.Selector.make (Lazy.force selector_ctx) ~link_gbps:Topology.link_gbps

let permutation_flows load seed =
  let topo = Routing.topo (Lazy.force selector_ctx) in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load) in
  Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)

let selector_uniform_matches_manual () =
  let sel = mk_selector () in
  let flows = permutation_flows 0.5 3 in
  let manual =
    U.to_float
      (Genetic.Selector.aggregate_throughput_gbps sel ~flows
         (Array.make (Array.length flows) Routing.Rps))
  in
  Alcotest.(check (float 1e-9)) "uniform = all-same assignment" manual
    (U.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps))

let selector_beats_or_matches_baselines () =
  (* The GA-selected assignment must never be worse than either uniform
     baseline (the paper's Fig. 18 claim: ratio always >= 1). *)
  let sel = mk_selector () in
  List.iter
    (fun load ->
      let flows = permutation_flows load (17 + int_of_float (load *. 10.0)) in
      let rng = Util.Rng.create 23 in
      let init = Array.make (Array.length flows) Routing.Rps in
      let rps = U.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps) in
      let vlb = U.to_float (Genetic.Selector.uniform sel ~flows Routing.Vlb) in
      let sel_assignment, adaptive_q =
        Genetic.Selector.select ~pop_size:30 ~generations:10 sel rng ~flows ~init
      in
      ignore sel_assignment;
      let adaptive = U.to_float adaptive_q in
      Alcotest.(check bool)
        (Printf.sprintf "load %.2f: adaptive %.1f >= max(rps %.1f, vlb %.1f)" load adaptive rps vlb)
        true
        (adaptive >= Float.max rps vlb -. 1e-6))
    [ 0.25; 0.75 ]

let selector_low_load_prefers_nonminimal_sometimes () =
  (* At low load VLB's extra capacity helps; the adaptive assignment should
     strictly beat all-RPS at least somewhere. *)
  let sel = mk_selector () in
  let flows = permutation_flows 0.125 29 in
  let rng = Util.Rng.create 31 in
  let init = Array.make (Array.length flows) Routing.Rps in
  let rps = U.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps) in
  let _, adaptive_q = Genetic.Selector.select ~pop_size:40 ~generations:12 sel rng ~flows ~init in
  let adaptive = U.to_float adaptive_q in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.2f > rps %.2f" adaptive rps)
    true (adaptive >= rps)

let selector_rejects_bad_lengths () =
  let sel = mk_selector () in
  let flows = permutation_flows 0.25 37 in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Selector: assignment length mismatch") (fun () ->
      ignore (Genetic.Selector.aggregate_throughput_gbps sel ~flows [| Routing.Rps |]))

let selector_reuses_one_allocator () =
  (* One selector refills one allocator per evaluation; each reading must
     be bit for bit 8 x the slot-order sum of a fresh allocator's rates,
     across assignments and flow sets of different sizes. *)
  let ctx = Routing.make (Topology.torus [| 8; 8; 8 |]) in
  let topo = Routing.topo ctx in
  let sel = Genetic.Selector.make ctx ~link_gbps:Topology.link_gbps in
  let capacities =
    Array.make (Topology.link_count topo) (U.byte_rate_of_gbps Topology.link_gbps)
  in
  let rng = Util.Rng.create 41 in
  let flow_sets =
    List.map
      (fun load ->
        Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load)
        |> List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst))
        |> Array.of_list)
      [ 0.25; 0.125 ]
  in
  for trial = 0 to 5 do
    let flows = List.nth flow_sets (trial mod 2) in
    let assignment = Genetic.Selector.random_assignment sel rng ~flows in
    let fresh =
      Waterfill_model.fresh_rates ~capacities
        (Array.mapi
           (fun i (src, dst) ->
             Congestion.Waterfill.flow ~id:i (Routing.fractions ctx assignment.(i) ~src ~dst))
           flows)
    in
    let expected = 8.0 *. Array.fold_left (fun acc r -> acc +. U.to_float r) 0.0 fresh in
    let got = U.to_float (Genetic.Selector.aggregate_throughput_gbps sel ~flows assignment) in
    Alcotest.(check int64)
      (Printf.sprintf "evaluation %d (%d flows)" trial (Array.length flows))
      (Int64.bits_of_float expected) (Int64.bits_of_float got)
  done

(* A search holds its rows in one evaluator: repeated evaluations of one
   flow set read the rows it fetched first, and must give the one-shot
   evaluation's bits under every protocol; [select] and [reselect] must
   return what they returned when every evaluation fetched its rows
   afresh (the pins below were taken that way, on these inputs). *)
let selector_evaluator_keeps_results () =
  let ctx = Routing.make (Topology.torus [| 4; 4; 4 |]) in
  let sel = Genetic.Selector.make ~headroom:Topology.headroom ctx ~link_gbps:Topology.link_gbps in
  let flows_of load seed =
    let rng = Util.Rng.create seed in
    Workload.Flowgen.permutation_long_flows (Routing.topo ctx) rng ~load:(U.fraction load)
    |> List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst))
    |> Array.of_list
  in
  let bits g = Int64.bits_of_float (U.to_float g) in
  let show a =
    String.concat ""
      (Array.to_list (Array.map (fun p -> String.sub (Routing.protocol_name p) 0 1) a))
  in
  let flows = flows_of 0.25 43 in
  let ev = Genetic.Selector.evaluator sel ~flows in
  let rng = Util.Rng.create 5 and protocols = Array.of_list Routing.all_protocols in
  for trial = 0 to 7 do
    let assignment = Array.map (fun _ -> Util.Rng.pick rng protocols) flows in
    Alcotest.(check int64)
      (Printf.sprintf "evaluation %d = one-shot" trial)
      (bits (Genetic.Selector.aggregate_throughput_gbps sel ~flows assignment))
      (bits (Genetic.Selector.evaluate ev assignment))
  done;
  let init = Array.make (Array.length flows) Routing.Rps in
  let a, g =
    Genetic.Selector.select ~pop_size:20 ~generations:8 sel (Util.Rng.create 47) ~flows ~init
  in
  Alcotest.(check string) "select assignment" "VRVVVVVVVVVVVVVV" (show a);
  Alcotest.(check int64) "select throughput" 4643493943284289067L (bits g);
  let reselect ~flows ~current seed =
    Option.map show
      (Genetic.Selector.reselect ~pop_size:20 ~generations:8 sel (Util.Rng.create seed) ~flows
         ~current)
  in
  let cycling = Array.mapi (fun i _ -> List.nth Routing.all_protocols (i mod 4)) flows in
  Alcotest.(check (option string)) "reselect from all four protocols" (Some "VRVRVVVVVVVVVVVV")
    (reselect ~flows ~current:cycling 53);
  let flows2 = flows_of 0.25 59 in
  Alcotest.(check (option string)) "reselect from all-VLB" (Some "VVRVVVVVVVVVVVVV")
    (reselect ~flows:flows2 ~current:(Array.make (Array.length flows2) Routing.Vlb) 61);
  let flows3 = flows_of 1.0 67 in
  Alcotest.(check (option string)) "reselect keeps all-RPS at full load" None
    (reselect ~flows:flows3 ~current:(Array.make (Array.length flows3) Routing.Rps) 71)

let suites =
  [
    ( "genetic.ga",
      [
        tc "solves onemax" ga_solves_onemax;
        tc "elite keeps optimal init" ga_keeps_init_when_optimal;
        tc "empty genotype" ga_empty_genotype;
        tc "hill climbing improves" hill_climb_improves;
        tc "simulated annealing improves" annealing_improves;
        tc "random search bounded" random_search_bounded;
      ] );
    ( "genetic.selector",
      [
        tc "uniform equals manual assignment" selector_uniform_matches_manual;
        tc "adaptive >= best uniform baseline (Fig 18)" selector_beats_or_matches_baselines;
        tc "low load benefits from flexibility" selector_low_load_prefers_nonminimal_sometimes;
        tc "rejects bad assignment lengths" selector_rejects_bad_lengths;
        tc "evaluator keeps select and reselect results" selector_evaluator_keeps_results;
        tc "one allocator per selector = fresh allocate, bit for bit"
          selector_reuses_one_allocator;
      ] );
  ]
