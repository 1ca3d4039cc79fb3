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
let size = 400_000
let interval = 100_000
let digest = 50_000

type scenario = {
  loss : float;
  reorder : float;
  dup : float;
  run : Robust.run;
  digest_hops : int;  (* digest packet arrivals, the anti-entropy cost *)
}

(* [loss], [reorder] and [dup] hold for the whole run, or with [flap] only
   from 60 us to 400 us: clean start, a lossy middle, clean tail, so the
   run must reconverge after each flip, not merely survive a constant
   rate. *)
let scenario ?(flap = false) ~name loss reorder dup =
  let frac = Util.Units.fraction in
  let steady x = frac (if flap then 0.0 else x) in
  let cfg =
    {
      Sim.R2c2_sim.default_config with
      control = Sim.R2c2_sim.Per_node;
      reliable_bcast = true;
      recompute_interval_ns = interval;
      digest_interval_ns = digest;
      control_loss = steady loss;
      control_reorder = steady reorder;
      control_dup = steady dup;
    }
  in
  let sim = Robust.permutation cfg dims ~size in
  let net = Sim.R2c2_sim.net sim in
  let digest_hops = ref 0 in
  Sim.Net.set_arrive_tap net (fun ~node:_ pkt ->
      if Sim.Net.kind net pkt = Sim.Net.code_digest then incr digest_hops);
  let chaos ~at loss reorder dup =
    Sim.Scenario.fault ~at
      (Control_chaos { loss = frac loss; reorder = frac reorder; dup = frac dup })
  in
  let steps =
    if flap then [ chaos ~at:60_000 loss reorder dup; chaos ~at:400_000 0.0 0.0 0.0 ] else []
  in
  let run = Robust.run ~name sim steps in
  { loss; reorder; dup; run; digest_hops = !digest_hops }

let run () =
  let h = Topology.host_count (Topology.torus dims) in
  let scenarios =
    List.map
      (fun loss -> scenario ~name:(Printf.sprintf "loss-%g%%" (loss *. 100.0)) loss 0.0 0.0)
      [ 0.0; 0.01; 0.02; 0.05; 0.10 ]
    @ [ scenario ~name:"mixed" 0.02 0.02 0.01; scenario ~flap:true ~name:"flap" 0.08 0.0 0.0 ]
  in
  let g = Robust.gates () in
  Robust.check_violations g (List.map (fun s -> s.run) scenarios);
  (* Reconvergence bound for moderate loss: a gap must be healed within a
     handful of digest+NACK rounds, i.e. well within 20 rate epochs. *)
  let bound = 20 * interval in
  List.iter
    (fun s ->
      let name = s.run.name and r = s.run.res in
      if r.terminal_diverged <> 0 then
        Robust.fail g "%s: %d nodes still diverged at end of run" name r.terminal_diverged;
      if not (Sim.R2c2_sim.control_converged s.run.sim) then
        Robust.fail g "%s: control plane did not reconverge" name;
      if Robust.completed s.run <> h || r.aborted_flows <> [] then
        Robust.fail g "%s: %d/%d flows completed, %d aborted" name (Robust.completed s.run) h
          (List.length r.aborted_flows);
      if s.loss <= 0.05 then
        List.iter
          (fun ns ->
            if ns > bound then
              Robust.fail g "%s: reconvergence took %d ns > bound %d ns" name ns bound)
          r.reconverge_samples;
      if s.loss = 0.0 && s.reorder = 0.0 && s.dup = 0.0 then begin
        if r.divergence_epochs <> 0 then Robust.fail g "%s: divergence without chaos" name;
        if r.nacks_sent + r.sync_requests + r.event_retransmits <> 0 then
          Robust.fail g "%s: repair traffic without loss: %d NACKs, %d sync requests, %d replays"
            name r.nacks_sent r.sync_requests r.event_retransmits
      end)
    scenarios;
  let p50, p95, pmax =
    Robust.p50_p95_max ~empty:0
      (List.concat_map (fun s -> s.run.res.reconverge_samples) scenarios)
  in
  let scenario_json s =
    let r = s.run.res in
    Printf.sprintf
      "    { \"name\": \"%s\", \"loss\": %.2f, \"reorder\": %.2f, \"dup\": %.2f,\n\
      \      \"completed\": %d, \"aborted\": %d, \"ctrl_lost\": %d, \"ctrl_reordered\": %d,\n\
      \      \"ctrl_dupped\": %d, \"nacks\": %d, \"event_retransmits\": %d,\n\
      \      \"sync_requests\": %d, \"syncs_sent\": %d, \"sync_bytes\": %d,\n\
      \      \"digest_hops\": %d, \"dup_events_absorbed\": %d, \"divergence_epochs\": %d,\n\
      \      \"reconverge_ns\": [%s], \"terminal_diverged\": %d, \"converged\": %b,\n\
      \      \"loss_ewma\": %.4f, \"effective_headroom\": %.4f }"
      s.run.name s.loss s.reorder s.dup (Robust.completed s.run)
      (List.length r.aborted_flows)
      r.ctrl_lost r.ctrl_reordered r.ctrl_dupped r.nacks_sent r.event_retransmits
      r.sync_requests r.syncs_sent r.sync_bytes s.digest_hops r.dup_events_absorbed
      r.divergence_epochs
      (Robust.json_list string_of_int r.reconverge_samples)
      r.terminal_diverged
      (Sim.R2c2_sim.control_converged s.run.sim)
      (Util.Units.to_float r.loss_ewma)
      (Util.Units.to_float r.effective_headroom)
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
      h size interval digest bound p50 p95 pmax (Robust.passed g)
      (String.concat ",\n" (List.map scenario_json scenarios))
  in
  Robust.finish ~bench:"controlloss" ~file:"BENCH_controlloss.json" g json
    (Printf.sprintf "controlloss: all scenarios reconverged (p95 %d ns)" p95)
