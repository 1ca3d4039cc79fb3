(* r2c2 — command-line interface to the rack-scale network stack.

   Subcommands:
     topo       inspect a topology
     analyze    channel-load analysis of routing protocols under a pattern
     simulate   run a workload through a transport and report statistics
     broadcast  broadcast-overhead analysis
     select     GA routing-protocol selection for long flows
     trace      generate a workload trace file

   Examples:
     r2c2_cli topo --dims 8x8x8
     r2c2_cli analyze --dims 8x8 --pattern tornado
     r2c2_cli simulate --transport tcp --dims 6x6x6 --flows 500 --tau-us 1
     r2c2_cli select --dims 4x4x4 --load 0.25 *)

open Cmdliner

(* -- shared argument parsing -------------------------------------------- *)

let dims_conv =
  let parse s =
    try
      let parts = String.split_on_char 'x' s in
      let dims = Array.of_list (List.map int_of_string parts) in
      if Array.length dims = 0 then Error (`Msg "empty dimension list")
      else Ok dims
    with Failure _ -> Error (`Msg (Printf.sprintf "bad dimensions %S (use e.g. 4x4x4)" s))
  in
  let print ppf dims =
    Format.pp_print_string ppf
      (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
  in
  Arg.conv (parse, print)

let dims_arg =
  Arg.(value & opt dims_conv [| 4; 4; 4 |] & info [ "dims" ] ~docv:"KxKxK" ~doc:"Torus dimensions.")

let mesh_arg =
  Arg.(value & flag & info [ "mesh" ] ~doc:"Use a mesh (no wraparound) instead of a torus.")

let fb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fb" ] ~docv:"K" ~doc:"Use a KxK flattened butterfly instead of a torus.")

let clos_arg =
  Arg.(
    value
    & opt (some dims_conv) None
    & info [ "clos" ] ~docv:"LxSxP"
        ~doc:"Use a folded Clos: L leaves x S spines x P servers per leaf.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
let flows_arg = Arg.(value & opt int 500 & info [ "flows" ] ~docv:"N" ~doc:"Number of flows.")

let tau_arg =
  Arg.(value & opt float 1.0 & info [ "tau-us" ] ~docv:"US" ~doc:"Mean flow inter-arrival time (µs).")

let make_topo dims mesh fb clos =
  match (fb, clos) with
  | Some k, _ -> Topology.flattened_butterfly k
  | None, Some [| l; s; p |] -> Topology.clos ~leaves:l ~spines:s ~servers_per_leaf:p
  | None, Some _ -> invalid_arg "--clos expects LxSxP"
  | None, None -> if mesh then Topology.mesh dims else Topology.torus dims

(* -- topo ----------------------------------------------------------------- *)

let topo_cmd =
  let run dims mesh fb clos =
    let t = make_topo dims mesh fb clos in
    Format.printf "%a@." Topology.pp t;
    Format.printf "  vertices        : %d@." (Topology.vertex_count t);
    Format.printf "  directed links  : %d@." (Topology.link_count t);
    Format.printf "  diameter        : %d hops@." (Topology.diameter t);
    Format.printf "  average distance: %.2f hops@." (Topology.average_distance t);
    Format.printf "  bisection links : %d@." (Topology.bisection_links t);
    Format.printf "  broadcast bytes : %d per flow event@." (Broadcast.bytes_per_broadcast t)
  in
  Cmd.v (Cmd.info "topo" ~doc:"Inspect a rack topology.")
    Term.(const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg)

(* -- analyze -------------------------------------------------------------- *)

let pattern_conv =
  Arg.enum
    [
      ("uniform", Workload.Pattern.Uniform);
      ("nearest-neighbor", Workload.Pattern.Nearest_neighbor);
      ("bit-complement", Workload.Pattern.Bit_complement);
      ("transpose", Workload.Pattern.Transpose);
      ("tornado", Workload.Pattern.Tornado);
    ]

let analyze_cmd =
  let run dims mesh fb clos pattern =
    let t = make_topo dims mesh fb clos in
    let ctx = Routing.make t in
    let flows = Workload.Pattern.flows t pattern in
    Format.printf "%s on %a — saturation throughput (fraction of bisection capacity):@."
      (Workload.Pattern.name pattern) Topology.pp t;
    List.iter
      (fun proto ->
        Format.printf "  %-4s %.3f@."
          (Routing.protocol_name proto)
          (Util.Units.to_float (Congestion.Channel_load.capacity_fraction ctx proto flows)))
      Routing.all_protocols
  in
  let pattern_arg =
    Arg.(
      value
      & opt pattern_conv Workload.Pattern.Uniform
      & info [ "pattern" ] ~docv:"PATTERN" ~doc:"Traffic pattern.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Channel-load analysis of the routing protocols under a pattern.")
    Term.(const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg $ pattern_arg)

(* -- simulate -------------------------------------------------------------- *)

type transport = R2c2 | Tcp | Pfq | Fluid

let transport_conv =
  Arg.enum [ ("r2c2", R2c2); ("tcp", Tcp); ("pfq", Pfq); ("fluid", Fluid) ]

let pp_band name fcts tputs =
  if Array.length fcts > 0 then
    Format.printf "  %s FCT      : p50 %.1f us, p95 %.1f us, p99 %.1f us@." name
      (Util.Stats.percentile fcts 50.0) (Util.Stats.percentile fcts 95.0)
      (Util.Stats.percentile fcts 99.0);
  if Array.length tputs > 0 then
    Format.printf "  %s thruput  : mean %.2f Gbps@." name (Util.Stats.mean tputs)

(* MD5 over every completed flow's (id, FCT ns), in id order: unlike the
   rounded percentiles, it moves when any one flow's completion does. *)
let pp_flow_digest fcts =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun (id, fct) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" id fct))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) fcts);
  Format.printf "  flow digest      : %s@." (Digest.to_hex (Digest.string (Buffer.contents buf)))

let report_metrics total (m : Sim.Metrics.t) =
  Format.printf "  completed        : %d / %d flows@." (Sim.Metrics.completed_count m) total;
  pp_band "short" (Sim.Metrics.fcts_us ~max_size:100_000 m) [||];
  pp_band "long " [||] (Util.Units.floats_of (Sim.Metrics.throughputs_gbps ~min_size:1_000_000 m));
  pp_band "all  " (Sim.Metrics.fcts_us m) (Util.Units.floats_of (Sim.Metrics.throughputs_gbps m));
  pp_flow_digest
    (List.filter_map
       (fun (f : Sim.Metrics.flow) ->
         if Sim.Metrics.complete m f then Some (f.id, Sim.Metrics.fct_ns f) else None)
       (Sim.Metrics.all m))

let report_queues q =
  let kb = Array.map (fun b -> float_of_int b /. 1024.0) q in
  Format.printf "  max queue        : median %.1f KB, p99 %.1f KB@."
    (Util.Stats.percentile kb 50.0) (Util.Stats.percentile kb 99.0)

let report_fluid total (res : Emu.Fluid.result) =
  Format.printf "  completed        : %d / %d flows@." (List.length res.flows) total;
  pp_band "all  "
    (Array.of_list
       (List.map (fun (r : Emu.Fluid.flow_result) -> float_of_int r.fct_ns /. 1000.0) res.flows))
    (Array.of_list
       (List.map
          (fun (r : Emu.Fluid.flow_result) -> Util.Units.to_float r.avg_rate_gbps)
          res.flows));
  pp_flow_digest (List.map (fun (r : Emu.Fluid.flow_result) -> (r.index, r.fct_ns)) res.flows)

let simulate_cmd =
  let run dims mesh fb clos transport flows tau_us size seed headroom rho_us per_node reselect
      trace_file =
    let t = make_topo dims mesh fb clos in
    let rng = Util.Rng.create seed in
    let tau = tau_us *. 1000.0 in
    let specs =
      match trace_file with
      | Some path -> Workload.Trace.load path
      | None ->
          if size > 0 then
            Workload.Flowgen.fixed_size t rng ~flows ~size ~mean_interarrival_ns:tau
          else Workload.Flowgen.poisson_pareto t rng ~flows ~mean_interarrival_ns:tau
    in
    let total = List.length specs in
    Format.printf "simulating %d flows on %a (%s)@." total Topology.pp t
      (match transport with R2c2 -> "R2C2" | Tcp -> "TCP" | Pfq -> "PFQ" | Fluid -> "fluid emu");
    (match transport with
    | R2c2 ->
        let cfg =
          {
            Sim.R2c2_sim.default_config with
            seed;
            headroom;
            recompute_interval_ns = int_of_float (rho_us *. 1000.0);
            control = (if per_node then Sim.R2c2_sim.Per_node else Sim.R2c2_sim.Global_epoch);
            reselect_interval_ns =
              (if reselect > 0.0 then Some (int_of_float (reselect *. 1000.0)) else None);
          }
        in
        let res = Sim.R2c2_sim.run cfg t specs in
        report_metrics total res.Sim.R2c2_sim.metrics;
        report_queues res.Sim.R2c2_sim.max_queue;
        let ctrl = Util.Units.to_float res.Sim.R2c2_sim.control_wire_bytes in
        let data = Util.Units.to_float res.Sim.R2c2_sim.data_wire_bytes in
        Format.printf "  control traffic  : %.0f bytes on wire (%.2f%% of total)@." ctrl
          (100.0 *. ctrl /. Float.max 1.0 (ctrl +. data));
        Format.printf "  rate recomputes  : %d@." res.Sim.R2c2_sim.recomputes;
        if res.Sim.R2c2_sim.reselections > 0 then
          Format.printf "  reselections     : %d rounds, %d flows rerouted@."
            res.Sim.R2c2_sim.reselections res.Sim.R2c2_sim.flows_rerouted
    | Tcp ->
        let res = Sim.Tcp_sim.run Sim.Tcp_sim.default_config t specs in
        report_metrics total res.Sim.Tcp_sim.metrics;
        report_queues res.Sim.Tcp_sim.max_queue;
        Format.printf "  drops / retx     : %d / %d@." res.Sim.Tcp_sim.drops
          res.Sim.Tcp_sim.retransmits
    | Pfq -> report_fluid total (Emu.Fluid.run_pfq seed t specs)
    | Fluid ->
        let cfg =
          {
            Emu.Fluid.default_config with
            seed;
            headroom;
            recompute_interval_ns = int_of_float (rho_us *. 1000.0);
          }
        in
        report_fluid total (Emu.Fluid.run cfg t specs))
  in
  let transport_arg =
    Arg.(value & opt transport_conv R2c2 & info [ "transport" ] ~docv:"T" ~doc:"r2c2, tcp, pfq or fluid.")
  in
  let size_arg =
    Arg.(value & opt int 0 & info [ "size" ] ~docv:"BYTES" ~doc:"Fixed flow size (0 = Pareto mix).")
  in
  let headroom_arg =
    Arg.(
      value
      & opt float (Topology.headroom :> float)
      & info [ "headroom" ] ~docv:"F" ~doc:"Bandwidth headroom fraction.")
  in
  let rho_arg =
    Arg.(value & opt float 500.0 & info [ "rho-us" ] ~docv:"US" ~doc:"Rate recomputation interval (µs).")
  in
  let per_node_arg =
    Arg.(value & flag & info [ "per-node" ] ~doc:"Per-node decentralized rate computation (R2C2).")
  in
  let reselect_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "reselect-us" ] ~docv:"US"
          ~doc:"Routing-reselection interval in µs (0 = off; R2C2 only).")
  in
  let trace_arg =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc:"Replay a trace file.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a workload through a transport.")
    Term.(
      const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg $ transport_arg $ flows_arg $ tau_arg
      $ size_arg $ seed_arg
      $ (const Util.Units.fraction $ headroom_arg)
      $ rho_arg $ per_node_arg $ reselect_arg $ trace_arg)

(* -- broadcast -------------------------------------------------------------- *)

let broadcast_cmd =
  let run dims mesh fb clos =
    let t = make_topo dims mesh fb clos in
    Format.printf "broadcast overhead on %a:@." Topology.pp t;
    Format.printf "  %d bytes on the wire per flow event@." (Broadcast.bytes_per_broadcast t);
    Format.printf "  relative overhead of a 10 KB flow: %.1f%%@."
      (100.0 *. Broadcast.relative_flow_overhead t ~flow_bytes:10_000);
    Format.printf "  %% of capacity vs small-flow byte share (10 KB / 35 MB mix):@.";
    List.iter
      (fun frac ->
        Format.printf "    %3.0f%% small bytes -> %5.2f%%@." (100.0 *. frac)
          (100.0
          *. Broadcast.analytic_overhead t ~frac_small_bytes:frac ~small_size:10_000
               ~large_size:35_000_000))
      [ 0.01; 0.05; 0.1; 0.2; 0.5 ]
  in
  Cmd.v (Cmd.info "broadcast" ~doc:"Broadcast-overhead analysis.")
    Term.(const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg)

(* -- select ------------------------------------------------------------------ *)

let select_cmd =
  let run dims mesh fb clos load seed generations =
    let t = make_topo dims mesh fb clos in
    let ctx = Routing.make t in
    let sel = Genetic.Selector.make ctx ~link_gbps:Topology.link_gbps in
    let rng = Util.Rng.create seed in
    let specs = Workload.Flowgen.permutation_long_flows t rng ~load:(Util.Units.fraction load) in
    let flows =
      Array.of_list (List.map (fun (s : Workload.Flowgen.spec) -> (s.src, s.dst)) specs)
    in
    if Array.length flows = 0 then Format.printf "no flows at load %.2f@." load
    else begin
      let init = Array.make (Array.length flows) Routing.Rps in
      let rps = Util.Units.to_float (Genetic.Selector.uniform sel ~flows Routing.Rps) in
      let vlb = Util.Units.to_float (Genetic.Selector.uniform sel ~flows Routing.Vlb) in
      let assignment, adaptive_q = Genetic.Selector.select ~generations sel rng ~flows ~init in
      let adaptive = Util.Units.to_float adaptive_q in
      Format.printf "%d long flows at load %.2f on %a@." (Array.length flows) load Topology.pp t;
      Format.printf "  all-RPS : %8.1f Gbps@." rps;
      Format.printf "  all-VLB : %8.1f Gbps@." vlb;
      Format.printf "  adaptive: %8.1f Gbps (%d flows on VLB)@." adaptive
        (Array.fold_left (fun n p -> if p = Routing.Vlb then n + 1 else n) 0 assignment)
    end
  in
  let load_arg =
    Arg.(value & opt float 0.5 & info [ "load" ] ~docv:"F" ~doc:"Fraction of hosts sourcing a flow.")
  in
  let gen_arg =
    Arg.(value & opt int 20 & info [ "generations" ] ~docv:"N" ~doc:"GA generations.")
  in
  Cmd.v (Cmd.info "select" ~doc:"Adaptive per-flow routing-protocol selection.")
    Term.(const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg $ load_arg $ seed_arg $ gen_arg)

(* -- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let run dims mesh fb clos flows tau_us seed out =
    let t = make_topo dims mesh fb clos in
    let rng = Util.Rng.create seed in
    let specs =
      Workload.Flowgen.poisson_pareto t rng ~flows ~mean_interarrival_ns:(tau_us *. 1000.0)
    in
    Workload.Trace.save out specs;
    Format.printf "wrote %d arrivals to %s@." flows out
  in
  let out_arg =
    Arg.(value & opt string "workload.trace" & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "trace" ~doc:"Generate a workload trace file.")
    Term.(const run $ dims_arg $ mesh_arg $ fb_arg $ clos_arg $ flows_arg $ tau_arg $ seed_arg $ out_arg)

let () =
  let doc = "R2C2: a network stack for rack-scale computers" in
  let info = Cmd.info "r2c2_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ topo_cmd; analyze_cmd; simulate_cmd; broadcast_cmd; select_cmd; trace_cmd ]))
