(* Control-loss sweep (writes BENCH_controlloss.json) ---------------------
   The lossy-control-plane story end to end: a permutation workload runs
   under Per_node control (every sender builds its own traffic matrix from
   the broadcasts it receives) while the chaos injector drops, reorders and
   duplicates control packets at swept rates from 0 to 10%. The reliable
   broadcast layer — sequence windows, NACK repair, anti-entropy digests,
   full-state sync — must bring every node's view back to byte-identical
   allocations: the run exits non-zero if any scenario ends with diverged
   views, an unconverged control plane, a lost flow, or (at loss <= 5%) a
   reconvergence sample above the bound, and if the lossless scenario sends
   any repair traffic. Each scenario also reports its digest hops, the
   anti-entropy cost. Everything is seed-fixed, so the JSON is
   byte-identical across runs. *)

let dims = [| 4; 4; 4 |]

type outcome = {
  oname : string;
  loss : float;
  reorder : float;
  dup : float;
  completed : int;
  aborted : int;
  ctrl_lost : int;
  ctrl_reordered : int;
  ctrl_dupped : int;
  nacks : int;
  retransmits : int;
  sync_requests : int;
  syncs : int;
  sync_bytes : int;
  digest_hops : int;
  dups_absorbed : int;
  divergence_epochs : int;
  reconverge_samples : int list;
  terminal_diverged : int;
  converged : bool;
  final_loss_ewma : float;
  eff_headroom : float;
}

let interval = 100_000

let frac = Util.Units.fraction

let run_scenario ~size ~name ~loss ~reorder ~dup ~flap () =
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let shift = (h / 2) + 3 in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      reliable_bcast = true;
      recompute_interval_ns = interval;
      digest_interval_ns = 50_000;
      control_loss = (if flap then frac 0.0 else loss);
      control_reorder = (if flap then frac 0.0 else reorder);
      control_dup = (if flap then frac 0.0 else dup);
      seed = 42;
    }
  in
  let t = Sim.R2c2_sim.create cfg topo in
  if flap then begin
    (* Clean start, a lossy middle, clean tail: the run must reconverge
       after each flip, not merely survive a constant rate. *)
    Sim.R2c2_sim.inject_at t ~ns:60_000 (Control_chaos { loss; reorder; dup });
    Sim.R2c2_sim.inject_at t ~ns:400_000
      (Control_chaos { loss = frac 0.0; reorder = frac 0.0; dup = frac 0.0 })
  end;
  let net = Sim.R2c2_sim.net t in
  let digest_hops = ref 0 in
  Sim.Net.set_arrive_tap net (fun ~node:_ pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_digest then incr digest_hops);
  for i = 0 to h - 1 do
    ignore (Sim.R2c2_sim.start_flow t ~src:i ~dst:((i + shift) mod h) ~size)
  done;
  let t0 = Unix.gettimeofday () in
  Sim.R2c2_sim.run_engine t;
  let wall = Unix.gettimeofday () -. t0 in
  let r = Sim.R2c2_sim.results t in
  let open Sim.R2c2_sim in
  Printf.printf
    "%-10s %3d flows done, %4d ctrl lost, %4d nacks, %3d rtx, %2d syncs, %6d digest hops, %2d div \
     epochs (%.1fs)\n%!"
    name
    (Sim.Metrics.completed_count r.metrics)
    r.ctrl_lost r.nacks_sent r.event_retransmits r.syncs_sent !digest_hops r.divergence_epochs wall;
  {
    oname = name;
    loss = Util.Units.to_float loss;
    reorder = Util.Units.to_float reorder;
    dup = Util.Units.to_float dup;
    completed = Sim.Metrics.completed_count r.metrics;
    aborted = List.length r.aborted_flows;
    ctrl_lost = r.ctrl_lost;
    ctrl_reordered = r.ctrl_reordered;
    ctrl_dupped = r.ctrl_dupped;
    nacks = r.nacks_sent;
    retransmits = r.event_retransmits;
    sync_requests = r.sync_requests;
    syncs = r.syncs_sent;
    sync_bytes = r.sync_bytes;
    digest_hops = !digest_hops;
    dups_absorbed = r.dup_events_absorbed;
    divergence_epochs = r.divergence_epochs;
    reconverge_samples = r.reconverge_samples;
    terminal_diverged = r.terminal_diverged;
    converged = Sim.R2c2_sim.control_converged t;
    final_loss_ewma = Util.Units.to_float r.loss_ewma;
    eff_headroom = Util.Units.to_float r.effective_headroom;
  }

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1))

let run () =
  let size = 400_000 in
  let topo = Topology.torus dims in
  let h = Topology.host_count topo in
  let sweep = [ 0.0; 0.01; 0.02; 0.05; 0.10 ] in
  let outcomes =
    List.map
      (fun loss ->
        let name = Printf.sprintf "loss-%g%%" (loss *. 100.0) in
        run_scenario ~size ~name ~loss:(frac loss) ~reorder:(frac 0.0) ~dup:(frac 0.0) ~flap:false ())
      sweep
    @ [
        run_scenario ~size ~name:"mixed" ~loss:(frac 0.02) ~reorder:(frac 0.02) ~dup:(frac 0.01)
          ~flap:false ();
        run_scenario ~size ~name:"flap" ~loss:(frac 0.08) ~reorder:(frac 0.0) ~dup:(frac 0.0)
          ~flap:true ();
      ]
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* Reconvergence bound for moderate loss: a gap must be healed within a
     handful of digest+NACK rounds, i.e. well within 20 rate epochs. *)
  let bound = 20 * interval in
  List.iter
    (fun o ->
      if o.terminal_diverged <> 0 then
        fail "%s: %d nodes still diverged at end of run" o.oname o.terminal_diverged;
      if not o.converged then fail "%s: control plane did not reconverge" o.oname;
      if o.completed <> h || o.aborted <> 0 then
        fail "%s: %d/%d flows completed, %d aborted" o.oname o.completed h o.aborted;
      if o.loss <= 0.05 then
        List.iter
          (fun s ->
            if s > bound then
              fail "%s: reconvergence took %d ns > bound %d ns" o.oname s bound)
          o.reconverge_samples;
      if o.loss = 0.0 && o.reorder = 0.0 && o.dup = 0.0 then begin
        if o.divergence_epochs <> 0 then fail "%s: divergence without chaos" o.oname;
        if o.nacks + o.sync_requests + o.retransmits <> 0 then
          fail "%s: repair traffic without loss: %d NACKs, %d sync requests, %d replays" o.oname
            o.nacks o.sync_requests o.retransmits
      end)
    outcomes;
  let all_samples =
    Array.of_list (List.concat_map (fun o -> o.reconverge_samples) outcomes)
  in
  Array.sort Int.compare all_samples;
  let p50, p95, pmax =
    if Array.length all_samples = 0 then (0, 0, 0)
    else
      ( percentile all_samples 50.0,
        percentile all_samples 95.0,
        percentile all_samples 100.0 )
  in
  let scenario_json o =
    Printf.sprintf
      "    { \"name\": \"%s\", \"loss\": %.2f, \"reorder\": %.2f, \"dup\": %.2f,\n\
      \      \"completed\": %d, \"aborted\": %d, \"ctrl_lost\": %d, \"ctrl_reordered\": %d,\n\
      \      \"ctrl_dupped\": %d, \"nacks\": %d, \"event_retransmits\": %d,\n\
      \      \"sync_requests\": %d, \"syncs_sent\": %d, \"sync_bytes\": %d,\n\
      \      \"digest_hops\": %d, \"dup_events_absorbed\": %d, \"divergence_epochs\": %d,\n\
      \      \"reconverge_ns\": [%s], \"terminal_diverged\": %d, \"converged\": %b,\n\
      \      \"loss_ewma\": %.4f, \"effective_headroom\": %.4f }"
      o.oname o.loss o.reorder o.dup o.completed o.aborted o.ctrl_lost o.ctrl_reordered
      o.ctrl_dupped o.nacks o.retransmits o.sync_requests o.syncs o.sync_bytes
      o.digest_hops o.dups_absorbed o.divergence_epochs
      (String.concat ", " (List.map string_of_int o.reconverge_samples))
      o.terminal_diverged o.converged o.final_loss_ewma o.eff_headroom
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"benchmark\": \"control-loss\",\n\
      \  \"topology\": \"torus-4x4x4\",\n\
      \  \"flows\": %d,\n\
      \  \"flow_bytes\": %d,\n\
      \  \"recompute_interval_ns\": %d,\n\
      \  \"digest_interval_ns\": %d,\n\
      \  \"reconverge_bound_ns\": %d,\n\
      \  \"reconverge_p50_ns\": %d,\n\
      \  \"reconverge_p95_ns\": %d,\n\
      \  \"reconverge_max_ns\": %d,\n\
      \  \"all_converged\": %b,\n\
      \  \"scenarios\": [\n%s\n  ]\n\
       }\n"
      h size interval 50_000 bound p50 p95 pmax (!failures = [])
      (String.concat ",\n" (List.map scenario_json outcomes))
  in
  let oc = open_out "BENCH_controlloss.json" in
  output_string oc json;
  close_out oc;
  print_string json;
  if !failures <> [] then begin
    List.iter (Printf.eprintf "controlloss: FAILED: %s\n") (List.rev !failures);
    exit 1
  end;
  Printf.printf "controlloss: all scenarios reconverged (p95 %d ns)\n" p95
