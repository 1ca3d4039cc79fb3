(* Tests for lib/congestion: water-filling (known answers, invariants,
   fast = reference), channel loads, demand estimation. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* The tests state their instances in raw numbers; these shims wrap the
   units at the boundary (and unwrap the resulting rates) so the known
   answers below stay plain floats. *)
let row links =
  Routing.row ~links:(Array.map fst links) ~fracs:(U.of_floats (Array.map snd links))

let wf ?weight ?priority ?demand ~id links =
  Congestion.Waterfill.flow ?weight ?priority
    ?demand:(Option.map U.byte_rate demand)
    ~id (row links)

let allocate ?headroom ~capacities flows =
  U.floats_of
    (Waterfill_model.fresh_rates
       ?headroom:(Option.map U.fraction headroom)
       ~capacities:(U.of_floats capacities) flows)

let allocate_reference ?headroom ~capacities flows =
  U.floats_of
    (Congestion.Waterfill.allocate_reference
       ?headroom:(Option.map U.fraction headroom)
       ~capacities:(U.of_floats capacities) flows)

let single_flow_gets_capacity () =
  let rates = allocate ~capacities:[| 10.0 |] [| wf ~id:0 [| (0, 1.0) |] |] in
  Alcotest.(check (float 1e-9)) "full link" 10.0 rates.(0)

let two_flows_share_equally () =
  let flows = [| wf ~id:0 [| (0, 1.0) |]; wf ~id:1 [| (0, 1.0) |] |] in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "half" 5.0 rates.(0);
  Alcotest.(check (float 1e-9)) "half" 5.0 rates.(1)

let weighted_sharing () =
  let flows = [| wf ~weight:3.0 ~id:0 [| (0, 1.0) |]; wf ~weight:1.0 ~id:1 [| (0, 1.0) |] |] in
  let rates = allocate ~capacities:[| 8.0 |] flows in
  Alcotest.(check (float 1e-9)) "3:1 split" 6.0 rates.(0);
  Alcotest.(check (float 1e-9)) "3:1 split" 2.0 rates.(1)

let headroom_respected () =
  let flows = [| wf ~id:0 [| (0, 1.0) |] |] in
  let rates = allocate ~headroom:0.05 ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "95% of link" 9.5 rates.(0)

let demand_caps_rate () =
  let flows = [| wf ~demand:2.0 ~id:0 [| (0, 1.0) |]; wf ~id:1 [| (0, 1.0) |] |] in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "capped at demand" 2.0 rates.(0);
  Alcotest.(check (float 1e-9)) "rest to the other" 8.0 rates.(1)

let priority_rounds () =
  let flows =
    [| wf ~priority:0 ~id:0 [| (0, 1.0) |]; wf ~priority:1 ~id:1 [| (0, 1.0) |] |]
  in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "high priority takes all" 10.0 rates.(0);
  Alcotest.(check (float 1e-9)) "low priority starved" 0.0 rates.(1)

let priority_with_demand_leftover () =
  let flows =
    [| wf ~priority:0 ~demand:4.0 ~id:0 [| (0, 1.0) |]; wf ~priority:1 ~id:1 [| (0, 1.0) |] |]
  in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "demand met" 4.0 rates.(0);
  Alcotest.(check (float 1e-9)) "leftover to next round" 6.0 rates.(1)

(* Paper Fig. 4: flow f1 sprays over two paths (direct + via node 3), flow
   f2 single path via node 3; respecting routing-dictated 50/50 split the
   max-min allocation is {2/3, 2/3}. Links: 0 = (1,4), 1 = (1,3), 2 = (3,4),
   3 = (2,3). *)
let paper_fig4_example () =
  let capacities = [| 1.0; 1.0; 1.0; 1.0 |] in
  let f1 = wf ~id:1 [| (0, 0.5); (1, 0.5); (2, 0.5) |] in
  let f2 = wf ~id:2 [| (3, 1.0); (2, 1.0) |] in
  let rates = allocate ~capacities [| f1; f2 |] in
  Alcotest.(check (float 1e-6)) "f1 = 2/3" (2.0 /. 3.0) rates.(0);
  Alcotest.(check (float 1e-6)) "f2 = 2/3" (2.0 /. 3.0) rates.(1)

let multilink_bottleneck () =
  (* Flow A crosses links 0,1; flow B crosses link 1; flow C crosses link 0.
     Link capacities make link 1 the first bottleneck. *)
  let flows =
    [|
      wf ~id:0 [| (0, 1.0); (1, 1.0) |]; wf ~id:1 [| (1, 1.0) |]; wf ~id:2 [| (0, 1.0) |];
    |]
  in
  let rates = allocate ~capacities:[| 10.0; 4.0 |] flows in
  Alcotest.(check (float 1e-6)) "A limited by link1" 2.0 rates.(0);
  Alcotest.(check (float 1e-6)) "B limited by link1" 2.0 rates.(1);
  Alcotest.(check (float 1e-6)) "C takes the slack on link0" 8.0 rates.(2)

let fractional_load () =
  (* A flow spraying over two links at 0.5 each loads each at rate/2. *)
  let flows = [| wf ~id:0 [| (0, 0.5); (1, 0.5) |] |] in
  let rates = allocate ~capacities:[| 1.0; 1.0 |] flows in
  Alcotest.(check (float 1e-9)) "rate 2 with half fractions" 2.0 rates.(0)

let empty_flow_list () =
  let rates = allocate ~capacities:[| 1.0 |] [||] in
  Alcotest.(check int) "empty result" 0 (Array.length rates)

let invalid_inputs_rejected () =
  Alcotest.check_raises "bad weight" (Invalid_argument "Waterfill: non-positive weight")
    (fun () ->
      ignore
        (allocate ~capacities:[| 1.0 |]
           [| wf ~weight:0.0 ~id:0 [| (0, 1.0) |] |]));
  Alcotest.check_raises "bad link id" (Invalid_argument "Waterfill: link id out of range")
    (fun () ->
      ignore (allocate ~capacities:[| 1.0 |] [| wf ~id:0 [| (7, 1.0) |] |]));
  Alcotest.check_raises "bad headroom" (Invalid_argument "Waterfill: headroom out of range")
    (fun () ->
      ignore
        (allocate ~headroom:1.0 ~capacities:[| 1.0 |]
           [| wf ~id:0 [| (0, 1.0) |] |]));
  (* A priority is the broadcast's 8-bit field; both allocators refuse
     any other. *)
  List.iter
    (fun priority ->
      let flows = [| wf ~priority ~id:0 [| (0, 1.0) |] |] in
      let err = Invalid_argument "Waterfill: priority outside 0..255" in
      Alcotest.check_raises (Printf.sprintf "priority %d" priority) err (fun () ->
          ignore (allocate ~capacities:[| 1.0 |] flows));
      Alcotest.check_raises (Printf.sprintf "reference, priority %d" priority) err (fun () ->
          ignore (allocate_reference ~capacities:[| 1.0 |] flows)))
    [ -1; 256; max_int ]

(* A fresh allocator keyed by array slot: [id] is opaque and may repeat. *)
let repeated_ids_by_slot () =
  let flows = [| wf ~id:7 [| (0, 1.0) |]; wf ~demand:2.0 ~id:7 [| (0, 1.0) |] |] in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "first slot takes the rest" 8.0 rates.(0);
  Alcotest.(check (float 1e-9)) "second slot capped at its demand" 2.0 rates.(1)

(* Nothing constrains a flow without links: it gets its demand, or 0. *)
let linkless_flows () =
  let flows = [| wf ~id:0 [||]; wf ~demand:3.0 ~id:1 [||]; wf ~id:2 [| (0, 1.0) |] |] in
  let rates = allocate ~capacities:[| 10.0 |] flows in
  Alcotest.(check (float 1e-9)) "no demand: 0" 0.0 rates.(0);
  Alcotest.(check (float 1e-9)) "demand met" 3.0 rates.(1);
  Alcotest.(check (float 1e-9)) "linked flow unaffected" 10.0 rates.(2)

let headroom_checked_before_flows () =
  Alcotest.check_raises "headroom first" (Invalid_argument "Waterfill: headroom out of range")
    (fun () ->
      ignore
        (allocate ~headroom:1.0 ~capacities:[| 1.0 |]
           [| wf ~weight:0.0 ~id:0 [| (0, 1.0) |] |]));
  Alcotest.check_raises "negative demand" (Invalid_argument "Waterfill: negative demand")
    (fun () -> ignore (allocate ~capacities:[| 1.0 |] [| wf ~demand:(-1.0) ~id:0 [||] |]));
  (* A bad fraction is refused where the row is built, before any
     allocator sees it. *)
  Alcotest.check_raises "zero fraction" (Invalid_argument "Routing.row: non-positive fraction")
    (fun () -> ignore (allocate ~capacities:[| 1.0 |] [| wf ~id:0 [| (0, 0.0) |] |]))

(* Priorities 0 and 255, the ends of the broadcast's 8-bit field, in one
   fill: the counting sort spans all 256 classes. *)
let full_priority_range () =
  let flows =
    [|
      wf ~priority:255 ~id:0 [| (0, 1.0) |];
      wf ~priority:0 ~demand:4.0 ~id:1 [| (0, 1.0); (1, 1.0) |];
      wf ~priority:128 ~demand:3.0 ~id:2 [| (1, 1.0) |];
      wf ~priority:255 ~id:3 [| (0, 1.0); (1, 1.0) |];
    |]
  in
  let got = allocate ~capacities:[| 10.0; 8.0 |] flows in
  let want = allocate_reference ~capacities:[| 10.0; 8.0 |] flows in
  Array.iteri
    (fun i w -> Alcotest.(check (float 1e-9)) (Printf.sprintf "flow %d" i) w got.(i))
    want;
  Alcotest.(check (float 1e-9)) "class 255 takes link 1's last unit" 1.0 got.(3);
  Alcotest.(check (float 1e-9)) "and the rest of link 0" 5.0 got.(0)

(* Random instances for the property tests. *)
let gen_instance =
  QCheck.Gen.(
    let* nl = 1 -- 12 in
    let* nf = 1 -- 20 in
    let* caps = array_size (return nl) (float_range 0.5 4.0) in
    let* flows =
      list_size (return nf)
        (let* k = 1 -- min 4 nl in
         let* links = list_size (return k) (pair (0 -- (nl - 1)) (float_range 0.1 1.0)) in
         let* weight = float_range 0.5 3.0 in
         let* priority = 0 -- 2 in
         let* has_demand = bool in
         let* demand = float_range 0.1 3.0 in
         return (links, weight, priority, if has_demand then Some demand else None))
    in
    return (caps, flows))

let build_flows specs =
  List.mapi
    (fun i (links, weight, priority, demand) ->
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun (l, f) ->
          Hashtbl.replace tbl l (f +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
        links;
      let links =
        Array.of_list (Util.Tbl.fold_sorted ~cmp:Int.compare (fun l f acc -> (l, f) :: acc) tbl [])
      in
      wf ~weight ~priority ?demand ~id:i links)
    specs
  |> Array.of_list

let qcheck_capacity_feasible =
  QCheck.Test.make ~name:"allocation never exceeds capacity" ~count:300
    (QCheck.make gen_instance) (fun (caps, specs) ->
      let flows = build_flows specs in
      let rates = allocate ~capacities:caps flows in
      let util =
        Congestion.Waterfill.link_utilization ~capacities:(U.of_floats caps) flows
          (U.of_floats rates)
      in
      Array.for_all (fun u -> U.to_float u <= 1.0 +. 1e-6) util)

let qcheck_fast_equals_reference =
  QCheck.Test.make ~name:"efficient variant = reference water-filling" ~count:300
    (QCheck.make gen_instance) (fun (caps, specs) ->
      let flows = build_flows specs in
      let a = allocate ~headroom:0.05 ~capacities:caps flows in
      let b = allocate_reference ~headroom:0.05 ~capacities:caps flows in
      Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-6 *. (1.0 +. abs_float y)) a b)

let qcheck_max_min_property =
  (* No flow below its demand can be rate-starved while every one of its
     links has spare capacity. *)
  QCheck.Test.make ~name:"no flow starved with slack everywhere" ~count:300
    (QCheck.make gen_instance) (fun (caps, specs) ->
      let flows = build_flows specs in
      let rates = allocate ~capacities:caps flows in
      let load = Array.make (Array.length caps) 0.0 in
      Array.iteri
        (fun i f ->
          let { Routing.links; fracs; _ } = f.Congestion.Waterfill.row in
          Array.iteri
            (fun j l -> load.(l) <- load.(l) +. (rates.(i) *. (fracs.(j) : U.fraction :> float)))
            links)
        flows;
      Array.for_all2
        (fun f r ->
          let demand_met =
            match f.Congestion.Waterfill.demand with
            | Some d -> r >= (d : U.byte_rate :> float) -. 1e-6
            | None -> false
          in
          let some_link_tight =
            Array.exists (fun l -> load.(l) >= caps.(l) -. 1e-6) f.Congestion.Waterfill.row.links
          in
          demand_met || some_link_tight || f.Congestion.Waterfill.priority > 0)
        flows rates)

let qcheck_demand_never_exceeded =
  QCheck.Test.make ~name:"rates never exceed demand" ~count:300 (QCheck.make gen_instance)
    (fun (caps, specs) ->
      let flows = build_flows specs in
      let rates = allocate ~capacities:caps flows in
      Array.for_all2
        (fun f r ->
          match f.Congestion.Waterfill.demand with
          | Some d -> r <= (d : U.byte_rate :> float) +. 1e-6
          | None -> true)
        flows rates)

let qcheck_fast_equals_reference_dense =
  (* VLB fractions are dense (every link carries a sliver of every flow);
     the two allocators must also agree there. *)
  QCheck.Test.make ~name:"efficient = reference on dense VLB fractions" ~count:25
    QCheck.(pair (int_bound 1000) (2 -- 12))
    (fun (seed, nf) ->
      let ctx = Routing.make (Topology.torus [| 4; 4 |]) in
      let rng = Util.Rng.create seed in
      let flows =
        Array.init nf (fun i ->
            let src = Util.Rng.int rng 16 in
            let dst = (src + 1 + Util.Rng.int rng 15) mod 16 in
            let proto = if i mod 2 = 0 then Routing.Vlb else Routing.Wlb in
            Congestion.Waterfill.flow ~id:i (Routing.fractions ctx proto ~src ~dst))
      in
      let capacities = Array.make (Topology.link_count (Routing.topo ctx)) 1.25 in
      let a = allocate ~headroom:0.05 ~capacities flows in
      let b = allocate_reference ~headroom:0.05 ~capacities flows in
      Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-6 *. (1.0 +. abs_float y)) a b)

(* -- channel load --------------------------------------------------------- *)

let channel_load_uniform_rps () =
  let ctx = Routing.make (Topology.torus [| 8; 8 |]) in
  let flows = Workload.Pattern.flows (Routing.topo ctx) Workload.Pattern.Uniform in
  let v = U.to_float (Congestion.Channel_load.capacity_fraction ctx Routing.Rps flows) in
  Alcotest.(check bool) "uniform RPS ~ 1.0" true (abs_float (v -. 1.0) < 0.05)

let channel_load_vlb_half () =
  let ctx = Routing.make (Topology.torus [| 8; 8 |]) in
  List.iter
    (fun pattern ->
      let flows = Workload.Pattern.flows (Routing.topo ctx) pattern in
      let v = U.to_float (Congestion.Channel_load.capacity_fraction ctx Routing.Vlb flows) in
      Alcotest.(check bool)
        (Printf.sprintf "VLB = 0.5 on %s" (Workload.Pattern.name pattern))
        true
        (abs_float (v -. 0.5) < 0.05))
    [ Workload.Pattern.Uniform; Workload.Pattern.Tornado; Workload.Pattern.Nearest_neighbor ]

let channel_load_tornado_dor () =
  let ctx = Routing.make (Topology.torus [| 8; 8 |]) in
  let flows = Workload.Pattern.flows (Routing.topo ctx) Workload.Pattern.Tornado in
  let v = U.to_float (Congestion.Channel_load.capacity_fraction ctx Routing.Dor flows) in
  Alcotest.(check bool) "tornado DOR ~ 1/3" true (abs_float (v -. (1.0 /. 3.0)) < 0.02)

let channel_load_nn_minimal () =
  let ctx = Routing.make (Topology.torus [| 8; 8 |]) in
  let flows = Workload.Pattern.flows (Routing.topo ctx) Workload.Pattern.Nearest_neighbor in
  let v = U.to_float (Congestion.Channel_load.capacity_fraction ctx Routing.Rps flows) in
  Alcotest.(check (float 1e-6)) "nearest neighbor = 4" 4.0 v

(* -- demand estimation ---------------------------------------------------- *)

let demand_estimator_converges () =
  let d = Congestion.Demand.create ~period_ns:1000 () in
  (* Flow allocated 1 B/ns but queuing 500 B per period: demand 1.5. *)
  for _ = 1 to 20 do
    Congestion.Demand.observe d ~rate:(U.byte_rate 1.0) ~queued_bytes:(U.bytes 500.0)
  done;
  let est = U.to_float (Congestion.Demand.estimate d) in
  Alcotest.(check bool) "estimate near 1.5" true (abs_float (est -. 1.5) < 0.01)

let demand_host_limited_detection () =
  let d = Congestion.Demand.create ~period_ns:1000 () in
  Congestion.Demand.observe d ~rate:(U.byte_rate 0.4) ~queued_bytes:(U.bytes 0.0);
  Alcotest.(check bool) "host limited vs 1.0 allocation" true
    (Congestion.Demand.is_host_limited d ~allocation:(U.byte_rate 1.0));
  Alcotest.(check bool) "not limited vs 0.3" false
    (Congestion.Demand.is_host_limited d ~allocation:(U.byte_rate 0.3))

let suites =
  [
    ( "congestion.waterfill",
      [
        tc "single flow takes the link" single_flow_gets_capacity;
        tc "two flows share equally" two_flows_share_equally;
        tc "weights respected" weighted_sharing;
        tc "headroom subtracted" headroom_respected;
        tc "demand caps rate" demand_caps_rate;
        tc "strict priority" priority_rounds;
        tc "priority leftover flows down" priority_with_demand_leftover;
        tc "paper Fig.4 example = {2/3, 2/3}" paper_fig4_example;
        tc "multi-link bottleneck chain" multilink_bottleneck;
        tc "fractional link loads" fractional_load;
        tc "empty flow list" empty_flow_list;
        tc "invalid inputs rejected" invalid_inputs_rejected;
        tc "repeated ids allocate by slot" repeated_ids_by_slot;
        tc "link-less flows get 0 or their demand" linkless_flows;
        tc "headroom checked before flows" headroom_checked_before_flows;
        tc "priorities 0..255 in one fill" full_priority_range;
        QCheck_alcotest.to_alcotest qcheck_capacity_feasible;
        QCheck_alcotest.to_alcotest qcheck_fast_equals_reference;
        QCheck_alcotest.to_alcotest qcheck_fast_equals_reference_dense;
        QCheck_alcotest.to_alcotest qcheck_max_min_property;
        QCheck_alcotest.to_alcotest qcheck_demand_never_exceeded;
      ] );
    ( "congestion.channel_load",
      [
        tc "uniform RPS saturates at capacity" channel_load_uniform_rps;
        tc "VLB = 0.5 on any pattern" channel_load_vlb_half;
        tc "tornado DOR = 1/3" channel_load_tornado_dor;
        tc "nearest-neighbor minimal = 4" channel_load_nn_minimal;
      ] );
    ( "congestion.demand",
      [
        tc "estimator converges to rate + queue/T" demand_estimator_converges;
        tc "host-limited detection" demand_host_limited_detection;
      ] );
  ]
