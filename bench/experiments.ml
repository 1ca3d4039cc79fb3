(* One function per table/figure of the paper's evaluation (§2.2.1, §5).
   Each returns the rows/series the paper reports, at a configurable scale,
   as tables that [print] renders. Absolute numbers differ from the paper's
   testbed; the shapes are what is being reproduced (see EXPERIMENTS.md). *)

module U = Util.Units

(* ---------------------------------------------------------------- tables *)

(* A value column: header, width and number format: [decimals] digits, then
   [suffix] (e.g. "%"), which counts towards [width]. *)
type column = { name : string; width : int; decimals : int; suffix : string }

(* A labelled row: one value per column, or a note where there are none. *)
type row = Row of string * float list | Note of string * string

type table = {
  title : string option;  (* printed between two rules *)
  pre : string list;  (* lines under the title, above the header *)
  key : string * int;  (* the label column's header and width *)
  columns : column list;  (* none: no header, the table is its text *)
  unit : string option;  (* printed after the header *)
  rows : row list;
  post : string list;  (* lines under the rows *)
}

let col ?(suffix = "") name width decimals = { name; width; decimals; suffix }

let table ?title ?(pre = []) ?(key = ("", 0)) ?unit ?(post = []) columns rows =
  { title; pre; key; columns; unit; rows; post }

let print t =
  let rule = String.make 72 '-' and key, width = t.key in
  let line label cells =
    print_endline (String.concat " " (Printf.sprintf "%-*s" width label :: cells))
  in
  Option.iter (fun title -> List.iter print_endline [ rule; title; rule ]) t.title;
  List.iter print_endline t.pre;
  if t.columns <> [] then
    line key
      (List.map (fun c -> Printf.sprintf "%*s" c.width c.name) t.columns
      @ Option.to_list (Option.map (Printf.sprintf "  (%s)") t.unit));
  List.iter
    (function
      | Row (label, values) ->
          line label
            (List.map2
               (fun c v ->
                 Printf.sprintf "%*.*f%s" (c.width - String.length c.suffix) c.decimals v c.suffix)
               t.columns values)
      | Note (label, note) -> line label [ note ])
    t.rows;
  List.iter print_endline t.post

let percentiles = [ 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0 ]

(* The [p]th percentile of [xs]; nan when [xs] is empty. *)
let pct xs p = if Array.length xs = 0 then nan else Util.Stats.percentile xs p

(* Rows p10 ... p99 of each named series, one column per series. *)
let cdf ?title ?pre ?unit width decimals series =
  table ?title ?pre ~key:("pct", 6) ?unit
    (List.map (fun (name, _) -> col name width decimals) series)
    (List.map
       (fun p -> Row (Printf.sprintf "p%.0f" p, List.map (fun (_, xs) -> pct xs p) series))
       percentiles)

(* Per-queue maxima in KB. *)
let kb to_float q = Array.map (fun b -> to_float b /. 1024.0) q

(* The best of [n] wall-clock timings of [f], in ms. *)
let best_ms n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best *. 1000.0

(* The §5.2 workload: Pareto sizes, Poisson arrivals [tau_ns] apart. *)
let pareto ?max_size ?(tau_ns = 1_000.0) topo ~flows ~seed =
  Workload.Flowgen.poisson_pareto ?max_size topo (Util.Rng.create seed) ~flows
    ~mean_interarrival_ns:tau_ns

let pairs specs = Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
let short_max = 100_000 (* <100 KB = short flows *)
let long_min = 1_000_000 (* >1 MB = long flows *)
let short_fcts m = Sim.Metrics.fcts_us ~max_size:short_max m
let long_tputs m = U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min m)

(* ---------------------------------------------------------------- fig2 *)

let fig2 ?(tries = 40) ?(seed = 7) () =
  let topo = Topology.torus [| 8; 8 |] in
  let ctx = Routing.make topo in
  (* The patterns and the worst-case search of one protocol share most of
     their pairs: the figure holds one protocol's rows for its length. *)
  let held =
    List.map (fun proto -> (proto, Congestion.Channel_load.held_rows ctx proto))
      Routing.all_protocols
  in
  let row name fraction =
    Row (name, List.map (fun (proto, row) -> U.to_float (fraction proto row)) held)
  in
  let pattern p =
    let flows = Workload.Pattern.flows topo p in
    row (Workload.Pattern.name p) (fun proto row ->
        Congestion.Channel_load.capacity_fraction ~row ctx proto flows)
  in
  let patterns =
    Workload.Pattern.[ Nearest_neighbor; Uniform; Bit_complement; Transpose; Tornado ]
    |> List.map pattern
  in
  let worst =
    row "worst-case" (fun proto row ->
        snd (Workload.Pattern.adversarial ~row ctx proto ~tries ~seed))
  in
  [ table ~key:("workload", 18)
      ~title:"Fig 2 (table): saturation throughput (fraction of bisection capacity)\n\
              8-ary 2-cube, six traffic patterns x four routing algorithms"
      (List.map (fun proto -> col (Routing.protocol_name proto) 8 2) Routing.all_protocols)
      (patterns @ [ worst ]) ]

(* ---------------------------------------------------------------- fig7 *)

let fig7 ?(flows = 300) ?(size = 2_000_000) ?(seed = 11) () =
  let topo = Topology.torus [| 4; 4 |] in
  let rng = Util.Rng.create seed in
  let specs = Workload.Flowgen.fixed_size topo rng ~flows ~size ~mean_interarrival_ns:1_000_000.0 in
  let sim_cfg = { Sim.R2c2_sim.default_config with link_gbps = U.gbps 5.0; seed } in
  let sim = Sim.R2c2_sim.run sim_cfg topo specs in
  let emu_cfg = { Emu.Fluid.default_config with link_gbps = U.gbps 5.0; seed } in
  let emu = Emu.Fluid.run emu_cfg topo specs in
  let emu_tput =
    Array.of_list
      (List.map (fun (f : Emu.Fluid.flow_result) -> U.to_float f.avg_rate_gbps) emu.Emu.Fluid.flows)
  in
  [ cdf 14 3 ~pre:[ "(a) per-flow average throughput CDF (Gbps)" ]
      ~title:(Printf.sprintf "Fig 7: cross-validation, packet simulator vs fluid emulator\n\
                              4x4 2D torus, 5 Gbps links, %d flows x %.1f MB, Poisson 1 ms"
                flows (float_of_int size /. 1e6))
      [ ("simulator", U.floats_of (Sim.Metrics.throughputs_gbps sim.Sim.R2c2_sim.metrics));
        ("emulator", emu_tput) ];
    cdf 14 3 ~pre:[ "(b) per-queue maximum occupancy CDF (KB)" ]
      [ ("simulator", kb float_of_int sim.Sim.R2c2_sim.max_queue);
        ("emulator", kb U.to_float emu.Emu.Fluid.max_queue_bytes) ] ]

(* ---------------------------------------------------------------- fig8 *)

(* One recompute of a held water-filler refilled from scratch, as
   [Emu.Fluid], per-node control and the GA selector run it: clear it,
   refill it with [flows] keyed by slot, allocate. *)
let refill_allocate alloc flows =
  let module Inc = Congestion.Waterfill.Inc in
  Inc.clear alloc;
  Array.iteri
    (fun i (f : Congestion.Waterfill.flow) ->
      Inc.add_flow ~weight:f.weight ~priority:f.priority ?demand:f.demand alloc ~id:i f.row)
    flows;
  Inc.allocate alloc

let fig8 ?(flows = 10_000) ?(seed = 5) () =
  let topo = Topology.torus [| 8; 8; 8 |] in
  (* Sizes capped at 2 MB so the trace reaches a steady state within the
     replayed window; the tail beyond the cap only adds long-lived flows
     that every epoch would re-process identically. *)
  let specs = pareto ~max_size:2_000_000 topo ~flows ~seed in
  (* Departure times from a fluid run with the default rho, each paired
     with its flow's arrival by index. *)
  let fluid = Emu.Fluid.run { Emu.Fluid.default_config with seed } topo specs in
  let events =
    List.concat
      [
        List.mapi (fun i (s : Workload.Flowgen.spec) -> (s.arrival_ns, `A i)) specs;
        List.map
          (fun (f : Emu.Fluid.flow_result) ->
            (f.spec.Workload.Flowgen.arrival_ns + f.fct_ns, `D f.index))
          fluid.Emu.Fluid.flows;
      ]
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let rctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate (10.0 /. 8.0)) in
  let alloc = Congestion.Waterfill.Inc.create ~headroom:Topology.headroom ~capacities () in
  (* Every flow's row is looked up before timing: the paper precomputes
     link weights per {routing protocol, destination} pair (§4.2). *)
  let by_index =
    Array.of_list
      (List.mapi
         (fun id (s : Workload.Flowgen.spec) ->
           Congestion.Waterfill.flow ~id (Routing.fractions rctx Routing.Rps ~src:s.src ~dst:s.dst))
         specs)
  in
  let arrival = Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> s.arrival_ns) specs) in
  let horizon = List.fold_left (fun acc (t, _) -> max acc t) 0 events in
  let row rho_ns =
    (* Replay: at every epoch boundary allocate over the flows active then
       (batching skips flows that come and go within one epoch, §3.3.2). *)
    let times = ref [] in
    let live = Array.make (Array.length by_index) false in
    let next = ref rho_ns in
    List.iter
      (fun (t, ev) ->
        while t > !next && !next <= horizon do
          (* Batching only rate-limits flows older than one interval
             (§3.3.2): flows that come and go within an epoch are absorbed
             by the headroom and never considered. *)
          let cutoff = !next - rho_ns in
          let wf = ref [] in
          for i = Array.length by_index - 1 downto 0 do
            if live.(i) && arrival.(i) <= cutoff then wf := by_index.(i) :: !wf
          done;
          let wf = Array.of_list !wf in
          if Array.length wf > 0 then begin
            (* Best-of-3 after a GC flush removes collector and scheduler
               noise from the wall-clock measurement (the paper's artifact
               was C++). *)
            Gc.full_major ();
            times := best_ms 3 (fun () -> refill_allocate alloc wf) :: !times
          end;
          next := !next + rho_ns
        done;
        match ev with `A i -> live.(i) <- true | `D i -> live.(i) <- false)
      events;
    let ts = Array.of_list !times and label = Printf.sprintf "%dus" (rho_ns / 1000) in
    let med = pct ts 50.0 and p99 = pct ts 99.0 and rho_ms = float_of_int rho_ns /. 1e6 in
    let overhead x = 100.0 *. x /. rho_ms in
    if ts = [||] then Note (label, "(no epochs)")
    else Row (label, [ med; p99; overhead med; overhead p99; float_of_int (Array.length ts) ])
  in
  [ table ~key:("rho", 12)
      ~title:"Fig 8: 99th-pct CPU overhead of rate recomputation vs interval rho\n\
              512-node 3D torus trace, flow inter-arrival 1 us"
      ~post:[ "(Atom-class core: multiply overhead by ~20x; see DESIGN.md substitutions)" ]
      [ col "median-ms" 10 3; col "p99-ms" 10 3; col ~suffix:"%" "Xeon-med%" 12 1;
        col ~suffix:"%" "Xeon-p99%" 12 1; col "epochs" 8 0 ]
      (List.map row [ 50_000; 100_000; 250_000; 500_000; 1_000_000 ]) ]

(* ---------------------------------------------------------------- fig9 *)

let fig9 () =
  let topos =
    [ ("3D torus 8x8x8", Topology.torus [| 8; 8; 8 |]);
      ("3D mesh 8x8x8", Topology.mesh [| 8; 8; 8 |]);
      ("2D torus 32x16", Topology.torus [| 32; 16 |]) ]
  in
  let overhead frac (_, topo) =
    100.0
    *. Broadcast.analytic_overhead topo ~frac_small_bytes:frac ~small_size:10_000
         ~large_size:35_000_000
  in
  [ table ~key:("small-frac", 10)
      ~title:"Fig 9: % of network capacity used by flow-event broadcasts\n\
              vs fraction of bytes carried by small (10 KB) flows; long flows 35 MB"
      (List.map (fun (name, _) -> col ~suffix:"%" name 16 2) topos)
      (List.map
         (fun frac -> Row (Printf.sprintf "%.2f" frac, List.map (overhead frac) topos))
         [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0 ]) ]

(* ---------------------------------------------------- fig10-14 shared runs *)

type per_transport = { tcp : float array; r2c2 : float array; pfq : float array }

(* One run of R2C2, TCP and PFQ over the same flows, reduced to what Figs.
   10-14 read: short-flow FCTs (us), long-flow average throughputs (Gbps)
   and per-queue maxima (KB). *)
type transport_run = {
  short_fct_us : per_transport;
  long_gbps : per_transport;
  r2c2_q_kb : float array;
  tcp_q_kb : float array;
}

let run_transports ~dims ~flows ~seed tau_ns =
  let topo = Topology.torus dims in
  let specs = pareto ~tau_ns topo ~flows ~seed in
  let r2c2 = Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed } topo specs in
  let tcp = Sim.Tcp_sim.run Sim.Tcp_sim.default_config topo specs in
  let pfq = (Emu.Fluid.run_pfq seed topo specs).Emu.Fluid.flows in
  let pfq_where keep f =
    Array.of_list
      (List.filter_map
         (fun (r : Emu.Fluid.flow_result) ->
           if keep r.spec.Workload.Flowgen.size then Some (f r) else None)
         pfq)
  in
  let r2c2_m = r2c2.Sim.R2c2_sim.metrics and tcp_m = tcp.Sim.Tcp_sim.metrics in
  {
    short_fct_us =
      { tcp = short_fcts tcp_m; r2c2 = short_fcts r2c2_m;
        pfq = pfq_where (fun sz -> sz < short_max) (fun r -> float_of_int r.fct_ns /. 1000.0) };
    long_gbps =
      { tcp = long_tputs tcp_m; r2c2 = long_tputs r2c2_m;
        pfq = pfq_where (fun sz -> sz >= long_min) (fun r -> U.to_float r.avg_rate_gbps) };
    r2c2_q_kb = kb float_of_int r2c2.Sim.R2c2_sim.max_queue;
    tcp_q_kb = kb float_of_int tcp.Sim.Tcp_sim.max_queue;
  }

(* [transports ()] makes each tau's run at most once, so Figs. 10/11 (one
   tau) and Figs. 12-14 (the tau sweep) share the run they both read. *)
let transports ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(seed = 21) () =
  let runs = ref [] in
  fun tau_ns ->
    match List.assoc_opt tau_ns !runs with
    | Some run -> run
    | None ->
        let run = run_transports ~dims ~flows ~seed tau_ns in
        runs := (tau_ns, run) :: !runs;
        run

let fig10_11 ?(tau_ns = 1_000.0) transports =
  let run = transports tau_ns and tau = Printf.sprintf "tau = %g us" (tau_ns /. 1000.0) in
  let series t = [ ("TCP", t.tcp); ("R2C2", t.r2c2); ("PFQ", t.pfq) ] in
  [ cdf 12 2 ~title:("Fig 10: FCT CDF, short flows (<100 KB), " ^ tau) ~unit:"us"
      (series run.short_fct_us);
    cdf 12 2 ~title:("Fig 11: average-throughput CDF, long flows (>1 MB), " ^ tau) ~unit:"Gbps"
      (series run.long_gbps) ]

let fig12_13_14 ?(taus = [ 100.0; 1_000.0; 10_000.0; 100_000.0 ]) transports =
  let runs = List.map (fun tau -> (Printf.sprintf "%gus" (tau /. 1000.0), transports tau)) taus in
  let sweep title columns f =
    table ~title ~key:("tau", 10) columns (List.map (fun (tau, run) -> Row (tau, f run)) runs)
  in
  let vs_tcp = [ col "R2C2" 10 2; col "PFQ" 10 2 ] and p99 xs = pct xs 99.0 in
  [ sweep "Fig 12: 99th-pct short-flow FCT, normalized against TCP (higher = better)" vs_tcp
      (fun { short_fct_us = s; _ } -> [ p99 s.tcp /. p99 s.r2c2; p99 s.tcp /. p99 s.pfq ]);
    sweep "Fig 13: long-flow average throughput, normalized against TCP" vs_tcp
      (fun { long_gbps = l; _ } ->
        let tcp = Util.Stats.mean l.tcp in
        let f xs = if tcp > 0.0 then Util.Stats.mean xs /. tcp else nan in
        [ f l.r2c2; f l.pfq ]);
    sweep "Fig 14: max queue occupancy across all queues (R2C2), KB"
      [ col "median" 10 2; col "p99" 10 2; col "(TCP p99)" 14 2 ]
      (fun r -> [ pct r.r2c2_q_kb 50.0; p99 r.r2c2_q_kb; p99 r.tcp_q_kb ]) ]

(* -------------------------------------------------------- fig15/16 *)

(* Median and p95 of each labelled set of |rate - ideal| / ideal. *)
let rate_errors ~title ~key errors =
  [ table ~title ~key:(key, 10)
      [ col ~suffix:"%" "median" 10 1; col ~suffix:"%" "p95" 10 1 ]
      (List.map (fun (label, e) -> Row (label, [ 100.0 *. pct e 50.0; 100.0 *. pct e 95.0 ]))
         errors) ]

let fig15 ?(dims = [| 4; 4; 4 |]) ?(flows = 400) ?(seed = 31)
    ?(rhos = [ 50_000; 100_000; 250_000; 500_000; 1_000_000 ]) () =
  let topo = Topology.torus dims in
  let specs = pareto topo ~flows ~seed in
  rate_errors ~key:"rho"
    ~title:"Fig 15: |rate - ideal| / ideal vs recomputation interval rho (tau = 1 us)"
    (List.map
       (fun rho ->
         (* Fixed 1 ms lifetime floor so every rho compares the same flows. *)
         ( Printf.sprintf "%dus" (rho / 1000),
           Emu.Fluid.rate_error ~min_lifetime_ns:1_000_000 Emu.Fluid.default_config topo specs
             ~rho_ns:rho ))
       rhos)

let fig16 ?(dims = [| 4; 4; 4 |]) ?(flows = 400) ?(seed = 33)
    ?(taus = [ 100.0; 1_000.0; 10_000.0; 100_000.0 ]) () =
  let topo = Topology.torus dims in
  rate_errors ~key:"tau"
    ~title:"Fig 16: |rate - ideal| / ideal vs flow inter-arrival time (rho = 500 us)"
    (List.map
       (fun tau_ns ->
         let specs = pareto ~tau_ns topo ~flows ~seed in
         ( Printf.sprintf "%gus" (tau_ns /. 1000.0),
           Emu.Fluid.rate_error Emu.Fluid.default_config topo specs ~rho_ns:500_000 ))
       taus)

(* ------------------------------------------------------------ fig17 *)

let fig17 ?(dims = [| 6; 6; 6 |]) ?(flows = 2500) ?(seed = 41)
    ?(headrooms = [ 0.0; 0.025; 0.05; 0.1; 0.2 ]) () =
  let topo = Topology.torus dims in
  let specs = pareto topo ~flows ~seed in
  let row h =
    let cfg = { Sim.R2c2_sim.default_config with seed; headroom = U.fraction h } in
    let m = (Sim.R2c2_sim.run cfg topo specs).Sim.R2c2_sim.metrics in
    Row (Printf.sprintf "%.3f" h, [ pct (short_fcts m) 99.0; Util.Stats.mean (long_tputs m) ])
  in
  [ table ~key:("headroom", 10)
      ~title:"Fig 17: sensitivity to headroom (tau = 1 us)\n\
              (a) 99th-pct FCT short flows, (b) mean throughput long flows"
      [ col "p99 FCT (us)" 14 2; col "long tput (Gbps)" 16 2 ]
      (List.map row headrooms) ]

(* ------------------------------------------------------------ fig18 *)

let fig18 ?(dims = [| 4; 4; 4 |]) ?(loads = [ 0.125; 0.25; 0.5; 0.75; 1.0 ]) ?(seed = 51)
    ?(pop_size = 60) ?(generations = 15) () =
  let topo = Topology.torus dims in
  let selector = Genetic.Selector.make (Routing.make topo) ~link_gbps:Topology.link_gbps in
  let row load =
    let rng = Util.Rng.create seed in
    let flows = pairs (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load)) in
    let label = Printf.sprintf "%.3f" load in
    if flows = [||] then Note (label, "(no flows)")
    else begin
      let rps = U.to_float (Genetic.Selector.uniform selector ~flows Routing.Rps) in
      let vlb = U.to_float (Genetic.Selector.uniform selector ~flows Routing.Vlb) in
      let rnd_assignment = Genetic.Selector.random_assignment selector rng ~flows in
      let rnd =
        U.to_float (Genetic.Selector.aggregate_throughput_gbps selector ~flows rnd_assignment)
      in
      let init = Array.make (Array.length flows) Routing.Rps in
      let _, adaptive = Genetic.Selector.select ~pop_size ~generations selector rng ~flows ~init in
      let adaptive = U.to_float adaptive in
      Row (label, [ adaptive /. rps; adaptive /. vlb; adaptive /. rnd; adaptive ])
    end
  in
  [ table ~key:("load", 8)
      ~title:"Fig 18: aggregate throughput of adaptive per-flow routing selection,\n\
              normalized against all-RPS / all-VLB / random (permutation long flows)"
      [ col "vs RPS" 12 3; col "vs VLB" 12 3; col "vs Random" 12 3; col "adaptive Gbps" 14 1 ]
      (List.map row loads) ]

(* ------------------------------------------------------------ fig19 *)

let fig19 ?(dims = [| 8; 8; 8 |]) () =
  let topo = Topology.torus dims in
  let dec = U.to_float (R2c2.Control_traffic.decentralized_event_bytes topo) in
  let row n =
    let c = U.to_float (R2c2.Control_traffic.centralized_event_bytes topo ~flows_per_server:n) in
    Row (string_of_int n, [ c; c /. dec ])
  in
  [ table ~key:("flows/server", 18)
      ~title:
        (Printf.sprintf "Fig 19: control traffic per flow event, decentralized vs centralized\n\
                         %d-node %dD torus" (Topology.host_count topo) (Array.length dims))
      ~pre:[ Printf.sprintf "decentralized: %.0f bytes/event (constant)" dec ]
      [ col "centralized B" 14 0; col ~suffix:"x" "ratio" 10 1 ]
      (List.map row [ 1; 2; 4; 6; 8; 10 ]) ]

(* ------------------------------------------------------------ ablations *)

(* Design-choice studies beyond the paper's figures; see DESIGN.md §5. *)

let ablation_control_plane ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(seed = 61) () =
  let topo = Topology.torus dims in
  let specs = pareto topo ~flows ~seed in
  let row (name, control) =
    let t0 = Unix.gettimeofday () in
    let res = Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed; control } topo specs in
    let wall = Unix.gettimeofday () -. t0 in
    let fcts = Sim.Metrics.fcts_us res.Sim.R2c2_sim.metrics in
    let q = kb float_of_int res.max_queue in
    Row (name, [ pct fcts 50.0; pct fcts 99.0; pct q 99.0; float_of_int res.recomputes; wall ])
  in
  [ table ~key:("control", 14)
      ~title:"Ablation A: control plane — global-epoch approximation vs the paper's\n\
              literal per-node computation (each sender water-fills over its own\n\
              broadcast-built view)"
      [ col "p50 FCT us" 12 2; col "p99 FCT us" 12 2; col "q p99 KB" 12 2;
        col "recomputes" 12 0; col "wall s" 10 2 ]
      (List.map row
         [ ("global-epoch", Sim.R2c2_sim.Global_epoch); ("per-node", Sim.R2c2_sim.Per_node) ]) ]

let ablation_broadcast_trees ?(dims = [| 8; 8; 8 |]) () =
  let topo = Topology.torus dims in
  let row k =
    let b = Broadcast.make ~trees_per_source:k topo in
    let load = Array.make (Topology.link_count topo) 0.0 in
    for src = 0 to Topology.host_count topo - 1 do
      for tree = 0 to k - 1 do
        List.iter
          (fun (p, c) ->
            match Topology.find_link topo p c with
            | Some l -> load.(l) <- load.(l) +. (1.0 /. float_of_int k)
            | None -> assert false)
          (Broadcast.edges b ~src ~tree)
      done
    done;
    let mx = Array.fold_left max 0.0 load and mean = Util.Stats.mean load in
    Row (string_of_int k, [ mx; mean; mx /. mean ])
  in
  [ table ~key:("trees/source", 16)
      ~title:"Ablation B: broadcast-tree load balancing — spreading each source's\n\
              broadcasts over k trees flattens the per-link control load"
      [ col "max link load" 14 1; col "mean load" 14 1; col "max/mean" 10 2 ]
      (List.map row [ 1; 2; 4; 8 ]) ]

let ablation_search ?(dims = [| 4; 4; 4 |]) ?(load = 0.5) ?(seed = 71) ?(budget = 1200) () =
  let topo = Topology.torus dims in
  let sel = Genetic.Selector.make (Routing.make topo) ~link_gbps:Topology.link_gbps in
  let rng0 = Util.Rng.create seed in
  let flows = pairs (Workload.Flowgen.permutation_long_flows topo rng0 ~load:(U.fraction load)) in
  let n = Array.length flows in
  let decode g = Array.map (fun c -> if c = 0 then Routing.Rps else Routing.Vlb) g in
  (* Every heuristic evaluates the same flows: one evaluator builds each
     flow's two rows once for all of them. *)
  let ev = Genetic.Selector.evaluator sel ~flows in
  let problem =
    {
      Genetic.Ga.genes = n;
      choices = 2;
      fitness = (fun g -> U.to_float (Genetic.Selector.evaluate ev (decode g)));
    }
  in
  let init = Array.make n 0 in
  let rps = U.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps) in
  let vlb = U.to_float (Genetic.Selector.uniform sel ~flows Routing.Vlb) in
  let pop = 40 in
  let _, ga =
    Genetic.Ga.optimize ~pop_size:pop ~generations:(budget / pop) ~patience:max_int
      (Util.Rng.create (seed + 1)) problem ~init
  in
  let _, hc = Genetic.Ga.hill_climb ~iterations:budget (Util.Rng.create (seed + 2)) problem ~init in
  let _, sa =
    Genetic.Ga.simulated_annealing ~iterations:budget (Util.Rng.create (seed + 3)) problem ~init
  in
  let _, rs = Genetic.Ga.random_search ~iterations:budget (Util.Rng.create (seed + 4)) problem in
  (* The production selector additionally seeds the uniform assignments, so
     it can never end below either baseline. *)
  let init_p = Array.make n Routing.Rps in
  let _, prod =
    Genetic.Selector.select ~pop_size:40 ~generations:(budget / 40) sel
      (Util.Rng.create (seed + 5)) ~flows ~init:init_p
  in
  [ table ~key:("heuristic", 22)
      ~title:
        (Printf.sprintf "Ablation D: search heuristic for routing selection (SS3.4 considered\n\
                         log-linear learning and simulated annealing before settling on a GA)\n\
                         permutation flows, load %.2f, equal fitness-evaluation budget (%d)"
           load budget)
      [ col "aggregate Gbps" 16 1 ]
      (List.map
         (fun (name, fit) -> Row (name, [ fit ]))
         [ ("all-RPS baseline", rps); ("all-VLB baseline", vlb); ("genetic algorithm", ga);
           ("hill climbing", hc); ("simulated annealing", sa); ("random search", rs);
           ("GA + uniform seeding", U.to_float prod) ]) ]

(* [flows] RPS flows between random distinct hosts of the 8x8x8 torus, and
   1.25 B/ns link capacities: what ablation E and `bench micro` water-fill. *)
let waterfill_inputs ~seed flows =
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create seed in
  let h = Topology.host_count topo in
  let wf =
    Array.init flows (fun i ->
        let src = Util.Rng.int rng h in
        let dst = (src + 1 + Util.Rng.int rng (h - 1)) mod h in
        Congestion.Waterfill.flow ~id:i (Routing.fractions ctx Routing.Rps ~src ~dst))
  in
  (Array.make (Topology.link_count topo) (U.byte_rate 1.25), wf)

let ablation_waterfill ?(flows = 800) ?(seed = 73) () =
  let capacities, wf = waterfill_inputs ~seed flows in
  let alloc = Congestion.Waterfill.Inc.create ~headroom:Topology.headroom ~capacities () in
  let fast = best_ms 5 (fun () -> refill_allocate alloc wf) in
  let slow =
    best_ms 5 (fun () ->
        Congestion.Waterfill.allocate_reference ~headroom:Topology.headroom ~capacities wf)
  in
  [ table
      ~title:"Ablation E: water-filling implementations — the SS4.2 \"efficient\n\
              variant\" vs textbook progressive filling (identical results, see\n\
              property tests)"
      ~pre:[ Printf.sprintf "%d flows on the 512-node torus:" flows;
             Printf.sprintf "  efficient variant: %8.3f ms" fast;
             Printf.sprintf "  reference        : %8.3f ms (%.1fx slower)" slow (slow /. fast) ]
      [] [] ]

let ablation_clos ?(seed = 79) () =
  (* 512 servers, 32-port switches: 32 leaves x 16 servers, 16 spines. *)
  let clos = Topology.clos ~leaves:32 ~spines:16 ~servers_per_leaf:16 in
  let specs = pareto clos ~flows:600 ~seed in
  let res = Sim.R2c2_sim.run { Sim.R2c2_sim.default_config with seed } clos specs in
  let fcts = Sim.Metrics.fcts_us res.Sim.R2c2_sim.metrics in
  let hosts = Topology.host_count clos in
  [ table
      ~title:"Ablation F (SS6): R2C2 atop a switched two-level folded Clos — broadcast\n\
              stays cheap at rack scale; congestion control works without multipath"
      ~pre:[ Printf.sprintf "topology: %d servers + %d switches, diameter %d" hosts
               (Topology.vertex_count clos - hosts) (Topology.diameter clos);
             Printf.sprintf "bytes per broadcast: %d (paper SS6: ~8.7 KB)"
               (Broadcast.bytes_per_broadcast clos);
             Printf.sprintf
               "R2C2 on the Clos: %d/%d flows complete, FCT p50 %.1f us p99 %.1f us, q p99 %.1f KB"
               (Sim.Metrics.completed_count res.Sim.R2c2_sim.metrics) (List.length specs)
               (pct fcts 50.0) (pct fcts 99.0) (pct (kb float_of_int res.max_queue) 99.0) ]
      [] [] ]

let ablation_live_reselection ?(dims = [| 4; 4; 4 |]) ?(load = 0.5) ?(seed = 83) () =
  let topo = Topology.torus dims in
  let rng = Util.Rng.create seed in
  let specs =
    List.map
      (fun (s : Workload.Flowgen.spec) -> { s with Workload.Flowgen.size = 4_000_000 })
      (Workload.Flowgen.permutation_long_flows topo rng ~load:(U.fraction load))
  in
  let row (name, interval) =
    let cfg = { Sim.R2c2_sim.default_config with seed; reselect_interval_ns = interval } in
    let res = Sim.R2c2_sim.run cfg topo specs in
    let m = res.Sim.R2c2_sim.metrics in
    let mean_fct = Util.Stats.mean (Sim.Metrics.fcts_us m)
    and mean_tput = Util.Stats.mean (U.floats_of (Sim.Metrics.throughputs_gbps m)) in
    Row (name, [ mean_fct; mean_tput; float_of_int res.flows_rerouted ])
  in
  [ table ~key:("mode", 22)
      ~title:"Ablation G: live SS3.4 routing reselection inside the packet simulator\n\
              (long permutation flows; reselection every 300 us vs static RPS)"
      [ col "mean FCT us" 12 1; col "mean tput Gbps" 14 2; col "reroutes" 12 0 ]
      (List.map row [ ("static all-RPS", None); ("adaptive (GA, 300us)", Some 300_000) ]) ]

let ablation_link_speed ?(dims = [| 6; 6; 6 |]) ?(flows = 600) ?(seed = 89) () =
  let topo = Topology.torus dims in
  let specs = pareto topo ~flows ~seed in
  let row gbps =
    let cfg = { Sim.R2c2_sim.default_config with seed; link_gbps = U.gbps gbps } in
    let res = Sim.R2c2_sim.run cfg topo specs in
    let m = res.Sim.R2c2_sim.metrics and q = kb float_of_int res.max_queue in
    let tput = Util.Stats.mean (long_tputs m) in
    Row (Printf.sprintf "%.0fG" gbps, [ pct (short_fcts m) 99.0; tput; pct q 99.0 ])
  in
  [ table ~key:("link", 10)
      ~title:"Ablation H: link speed (SS2.1 projects 10-100 Gbps fabrics) — R2C2's\n\
              probe-free control is rate-agnostic; queues stay in packets, not BDPs"
      [ col "p99 FCT us" 14 2; col "long tput Gbps" 14 2; col "q p99 KB" 12 2 ]
      (List.map row [ 10.0; 40.0; 100.0 ]) ]

let ablations () =
  List.concat_map
    (fun run -> run ())
    [ ablation_control_plane; ablation_broadcast_trees; ablation_search; ablation_waterfill;
      ablation_clos; ablation_live_reselection; ablation_link_speed ]
