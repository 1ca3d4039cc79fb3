(* The shared harness of the four robustness benches (chaos, graychaos,
   overload, control-loss). A bench scripts its faults as a
   {!Sim.Scenario} timeline and runs it through {!run}, which always arms
   byte conservation. A run keeps its simulator, result and scenario
   report; the bench's gates and JSON read them where they live, and
   {!finish} writes the JSON and turns any failed gate into exit 1. *)

type run = {
  name : string;
  sim : Sim.R2c2_sim.t;
  res : Sim.R2c2_sim.result;
  report : Sim.Scenario.report;
}

(* The permutation rack: a [dims] torus under [cfg] at seed 42 where host
   i sends [size] bytes to host i + h/2 + 3 (flow i), goodput kept in
   10 us buckets. *)
let permutation cfg dims ~size =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let sim = Sim.R2c2_sim.create { cfg with Sim.R2c2_sim.seed = 42 } topo in
  Sim.Metrics.set_goodput_bucket (Sim.R2c2_sim.metrics sim) ~bucket_ns:10_000;
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow sim ~src:i ~dst:((i + (h / 2) + 3) mod h) ~size)
  done;
  sim

(* The two permutation flows with an endpoint at host [v], ascending. *)
let flows_touching h v = List.sort Int.compare [ v; (v - (h / 2) - 3 + h) mod h ]

(* A deterministic cable end: vertex [v]'s first out-neighbour. *)
let cable topo v = fst (Topology.out_links topo v).(0)

(* Run [steps] on [sim] with byte conservation armed besides [invariants].
   Violations stay in the report: {!check_violations} gates them. *)
let run ?(invariants = []) ~name sim steps =
  let t0 = Unix.gettimeofday () in
  let report =
    Sim.Scenario.run ~on_violation:ignore
      ~invariants:(Sim.Scenario.Byte_conservation :: invariants)
      sim steps
  in
  let res = Sim.R2c2_sim.results sim in
  Printf.printf "%-12s %3d flows done, %d aborted, %d violations (%.1fs)\n%!" name
    (Sim.Metrics.completed_count res.metrics)
    (List.length res.aborted_flows)
    (List.length report.violations)
    (Unix.gettimeofday () -. t0);
  { name; sim; res; report }

let completed r = Sim.Metrics.completed_count r.res.metrics

(* Finish time of the run's last completed flow, at least 1. *)
let makespan r =
  let m = r.res.metrics in
  List.fold_left
    (fun acc (f : Sim.Metrics.flow) ->
      if Sim.Metrics.complete m f then max acc f.finish_ns else acc)
    1 (Sim.Metrics.all m)

(* Payload bytes the run had delivered by [t_ns], from its goodput buckets. *)
let delivered_by r t_ns =
  Array.fold_left
    (fun acc (b, bytes) -> if b < t_ns then acc + bytes else acc)
    0
    (Sim.Metrics.goodput_series r.res.metrics)

(* Goodput retention: payload delivered within [baseline]'s completion
   window, relative to [baseline]. Byte-weighted, so it captures the dip
   around a fault without being dominated by one straggler's tail. *)
let retention ~baseline r =
  let window = makespan baseline in
  float_of_int (delivered_by r window) /. float_of_int (delivered_by baseline window)

(* Ceil-rank p50, p95 and maximum of [samples]; [empty] for each if none. *)
let p50_p95_max ~empty samples =
  let a = Array.of_list (List.sort Int.compare samples) in
  let n = Array.length a in
  let pct p = a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1)) in
  if n = 0 then (empty, empty, empty) else (pct 50.0, pct 95.0, pct 100.0)

(* Whether two same-seed runs came out the same: every flow's outcome, the
   result's other fields (metrics aside, one shared stand-in) and the
   report. *)
let same_outcome a b =
  let no_metrics = Sim.Metrics.create () in
  let key r =
    ( List.map
        (fun (f : Sim.Metrics.flow) -> (f.id, f.priority, f.src, f.dst, f.delivered, f.finish_ns))
        (Sim.Metrics.all r.res.metrics),
      { r.res with metrics = no_metrics },
      Sim.R2c2_sim.shed_floor r.sim,
      r.report )
  in
  compare (key a) (key b) = 0

let json_list f l = String.concat ", " (List.map f l)

(* A bench's failed gates, newest first. *)
type gates = { mutable failed : string list }

let gates () = { failed = [] }
let fail g fmt = Printf.ksprintf (fun s -> g.failed <- s :: g.failed) fmt
let passed g = g.failed = []

(* Every run's monitors must have evaluated, and none may have fired. *)
let check_violations g runs =
  List.iter
    (fun r ->
      if r.report.checks = 0 then fail g "%s: invariant monitors never evaluated" r.name;
      List.iter (fail g "%s: invariant violated: %s" r.name) r.report.violations)
    runs

(* Write [json] to [file] and stdout; then print each failed gate to stderr
   and exit 1, or print [summary]. *)
let finish ~bench ~file g json summary =
  Out_channel.with_open_text file (fun oc -> output_string oc json);
  print_string json;
  if not (passed g) then begin
    List.iter (Printf.eprintf "%s: FAILED: %s\n" bench) (List.rev g.failed);
    exit 1
  end;
  print_endline summary
