(* The benchmark's three workloads. Each one generates its inputs from the
   seed before anything is timed, then runs repetitions: a set-up (topology
   plus the layer's [create]), a measured phase, and the correctness gate.
   A traced repetition runs the very same calls with spans around them and
   reads the per-layer counters; its output digest must equal the untraced
   one. *)

module U = Util.Units
module R = Sim.R2c2_sim
module S = R2c2.Stack
module V = R2c2.View
module T = Tracer

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let count name n = m name "count" (float_of_int n)

type rep = {
  wall_s : float;  (** measured phase, wall clock, reference-kernel runs excluded *)
  sim_ms : float;  (** simulated (or trace) milliseconds the phase advanced *)
  step_ms : float;  (** simulated (or trace) length of one measured step *)
  step_walls : float array;
      (** wall seconds of each step inside the arrival window, [0, last
          arrival]: the offered load is steady there, while the drain after
          it lasts as long as the largest flow the seed happened to draw *)
  kernel_s : float array;
      (** wall seconds of the {!Refkernel} runs interleaved with those
          steps, outside every span *)
  minor_words : float;  (** allocated during the measured phase *)
  digest : string;  (** hex MD5 of the outputs and non-timing counters *)
  attempted : int;
  failed : int;
  errors : string list;  (** correctness-gate violations *)
  outputs : metric list;  (** workload-specific end-to-end metrics *)
  layers : metric list;  (** per-layer metrics; traced repetitions only *)
  coverage_ns : int;  (** summed layer self time inside the measured phase *)
  probe_ns : int;
      (** traced-only observer calls inside the measured phase, which the
          untraced phase does not make *)
}

type t = {
  wname : string;
  params : (string * string) list;
  setup : unit -> unit;  (** one set-up, as timed for [setup_s] *)
  rep : T.t option -> rep;
}

let percentile = T.percentile
let mean xs = if Array.length xs = 0 then 0.0 else Util.Stats.mean xs
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per x n = if n = 0 then 0.0 else x /. float_of_int n
let us_of_ns xs = Array.map (fun x -> x /. 1000.0) xs
let seconds v = Array.map (fun ns -> ns /. 1e9) (T.Vec.to_floats v)

(* Per-layer metrics, in report order; a layer a workload never calls
   reports 0 (see README.md). *)
let layer_names =
  [
    ("engine.epoch_wall_us_p50", "us");
    ("engine.epoch_wall_us_p99", "us");
    ("engine.pending_max", "count");
    ("net.data_hops", "count");
    ("net.ctrl_hops", "count");
    ("net.ns_per_hop", "ns");
    ("net.packets_high_water", "count");
    ("net.drops", "count");
    ("net.ctrl_lost", "count");
    ("net.queue_max_kb_p99", "KB");
    ("routing.sample_path_calls", "count");
    ("routing.sample_path_ns", "ns");
    ("routing.sample_path_words", "words");
    ("waterfill.recomputes", "count");
    ("waterfill.per_node_alloc_us_p50", "us");
    ("waterfill.per_node_alloc_us_p99", "us");
    ("waterfill.heap_pushes_per_epoch", "count");
    ("waterfill.valid_pop_ratio", "ratio");
    ("rbcast.nacks_sent", "count");
    ("rbcast.event_retransmits", "count");
    ("rbcast.syncs_sent", "count");
    ("rbcast.dup_absorbed", "count");
    ("rbcast.divergence_epochs", "count");
    ("rbcast.reconverge_us_max", "us");
    ("rbcast.useful_ratio", "ratio");
    ("sim.start_flow_us_p50", "us");
    ("sim.start_flow_us_p99", "us");
    ("sim.start_flow_words", "words");
    ("stack.open_flow_us_p50", "us");
    ("stack.open_flow_us_p99", "us");
    ("stack.close_flow_us_p50", "us");
    ("stack.emit_digests_us_p50", "us");
    ("view.apply_ns_p50", "ns");
    ("stack.replay_range_calls", "count");
    ("stack.sync_view_calls", "count");
    ("view.duplicates", "count");
    ("stack.control_bytes", "bytes");
    ("stack.reliability_bytes", "bytes");
    ("stack.recompute_words_per_epoch", "words");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mwords", "Mwords");
    ("gc.pause_us_p50", "us");
    ("gc.pause_us_p99", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* Fill in every per-layer metric: measured ones from [given], 0 for the
   layers this workload does not reach. *)
let complete_layers given =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name unit 0.0)
    layer_names

let gc_layers tr ~(before : Gc.stat) ~(after : Gc.stat) =
  let pauses = T.gc_pauses_us tr in
  [
    count "gc.minor_collections" (after.minor_collections - before.minor_collections);
    count "gc.major_collections" (after.major_collections - before.major_collections);
    m "gc.promoted_mwords" "Mwords" ((after.promoted_words -. before.promoted_words) /. 1e6);
    m "gc.pause_us_p50" "us" (percentile pauses 50.0);
    m "gc.pause_us_p99" "us" (percentile pauses 99.0);
  ]

let summed_self tr = List.fold_left (fun acc (_, s) -> acc + s) 0 (T.layer_self tr)

let hex_digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* -- The packet simulations ------------------------------------------------ *)

let short_max = 100_000 (* Fig. 10: flows under 100 KB *)
let long_min = 1_000_000 (* Fig. 11: flows over 1 MB *)

let sim_workload ~wname ~dims ~flows ~tau_ns ~max_size ~(cfg : R.config) ~check_control seed =
  let specs =
    Array.of_list
      (Workload.Flowgen.poisson_pareto ~max_size (Topology.torus dims) (Util.Rng.create seed)
         ~flows ~mean_interarrival_ns:tau_ns)
  in
  let last_arrival = specs.(flows - 1).arrival_ns in
  let rho = cfg.recompute_interval_ns in
  let create () = R.create cfg (Topology.torus dims) in
  let per_node = cfg.control = R.Per_node in
  let rep tr =
    let sim = create () in
    let eng = R.engine sim and net = R.net sim in
    let hosts = Topology.host_count (R.topology sim) in
    (* Traced-only bookkeeping. *)
    let data_hops = ref 0 and ctrl_hops = ref 0 and bcast_deliveries = ref 0 in
    let pairs = T.Vec.create () in
    let active = Array.make hosts 0 in
    let start_words = ref 0.0 in
    let pending_max = ref 0 in
    let wf_push = ref 0 and wf_pops = ref 0 and wf_valid = ref 0 and wf_epochs = ref 0 in
    let read_dbg () =
      let d = Congestion.Waterfill.dbg in
      if d.pops > 0 || d.push > 0 then begin
        incr wf_epochs;
        wf_push := !wf_push + d.push;
        wf_pops := !wf_pops + d.pops;
        wf_valid := !wf_valid + d.valid
      end
    in
    (match tr with
    | None -> ()
    | Some _ ->
        Sim.Net.set_arrive_tap net (fun ~node:_ pkt ->
            let k = Sim.Net.kind net pkt in
            if Sim.Net.is_control net pkt then begin
              incr ctrl_hops;
              if k = Sim.Net.code_bcast then incr bcast_deliveries
            end
            else begin
              incr data_hops;
              (* A data packet's first arrival follows its injection, the one
                 place the sender sampled a path for it. *)
              if k = Sim.Net.code_data && Sim.Net.hop net pkt = 0 then
                T.Vec.push pairs ((Sim.Net.route_at net pkt 0 * hosts) + Sim.Net.route_last net pkt)
            end));
    let gc0 = Gc.quick_stat () in
    let words0 = Gc.minor_words () in
    let step_walls = T.Vec.create () and kernel = Refkernel.pacer () in
    let t0 = T.now_ns () in
    let n_start, n_epoch, n_alloc =
      match tr with
      | None -> (0, 0, 0)
      | Some tr ->
          T.gc_start tr;
          ( T.name tr "sim.start_flow",
            T.name tr "engine.epoch",
            T.name tr "waterfill.node_allocations" )
    in
    Array.iter
      (fun (s : Workload.Flowgen.spec) ->
        Sim.Engine.at eng s.arrival_ns
          (match tr with
          | None ->
              fun () ->
                ignore
                  (R.start_flow ~weight:s.weight ~priority:s.priority sim ~src:s.src ~dst:s.dst
                     ~size:s.size)
          | Some tr ->
              fun () ->
                let w = Gc.minor_words () in
                ignore
                  (T.span tr n_start (fun () ->
                       R.start_flow ~weight:s.weight ~priority:s.priority
                         ~on_complete:(fun _ -> active.(s.src) <- active.(s.src) - 1)
                         sim ~src:s.src ~dst:s.dst ~size:s.size));
                start_words := !start_words +. (Gc.minor_words () -. w);
                active.(s.src) <- active.(s.src) + 1))
      specs;
    (* Step the engine through simulated time; the wall time of each step
       inside the arrival window is a speed sample. Untraced, the steps are
       a tenth of rho so that reference-kernel runs interleave finely.
       Traced, a step is one rate epoch and the epoch span's self time is
       everything the simulator did in that rho except the start_flow calls
       nested in it. *)
    let step = if Option.is_none tr then rho / 10 else rho in
    let k = ref 1 in
    while Sim.Engine.pending eng > 0 do
      let until_ns = !k * step in
      let a = T.now_ns () in
      (match tr with
      | None -> R.run_engine ~until_ns sim
      | Some tr ->
          Congestion.Waterfill.reset_debug_counters ();
          T.span tr n_epoch (fun () -> R.run_engine ~until_ns sim);
          pending_max := max !pending_max (Sim.Engine.pending eng);
          (* Per_node runs one allocation per sender, so the debug counters
             only describe a whole computation after each observer call;
             Global_epoch runs at most one per step. *)
          if per_node then
            for node = 0 to hosts - 1 do
              if active.(node) > 0 then begin
                ignore (T.span tr n_alloc (fun () -> R.node_allocations sim ~node));
                read_dbg ()
              end
            done
          else read_dbg ();
          T.gc_poll tr);
      if until_ns <= last_arrival then begin
        T.Vec.push step_walls (T.now_ns () - a);
        Refkernel.tick kernel
      end;
      incr k
    done;
    let t1 = T.now_ns () in
    let words1 = Gc.minor_words () in
    let gc1 = Gc.quick_stat () in
    let res = R.results sim in
    let mt = res.metrics in
    (* Correctness gate. *)
    let errors = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    if res.injected_payload <> res.delivered_payload + res.dropped_payload + res.blackholed_payload
    then
      fail "byte conservation: injected %d <> delivered %d + dropped %d + blackholed %d"
        res.injected_payload res.delivered_payload res.dropped_payload res.blackholed_payload;
    let completed = Sim.Metrics.completed_count mt in
    if completed <> flows then fail "%d of %d flows completed" completed flows;
    if res.aborted_flows <> [] then fail "%d flows aborted" (List.length res.aborted_flows);
    if res.shed_flows <> 0 then fail "%d flows shed" res.shed_flows;
    if check_control then begin
      if res.terminal_diverged <> 0 then fail "terminal_diverged = %d" res.terminal_diverged;
      if not (R.control_converged sim) then fail "control plane not converged"
    end;
    (* Output digest: the per-flow FCT vector and the non-timing counters. *)
    let buf = Buffer.create (16 * flows) in
    List.iter
      (fun (f : Sim.Metrics.flow) ->
        Buffer.add_string buf
          (Printf.sprintf "%d:%d;" f.id
             (if Sim.Metrics.complete mt f then Sim.Metrics.fct_ns f else -1)))
      (Sim.Metrics.all mt);
    List.iter
      (fun x -> Buffer.add_string buf (string_of_int x ^ ","))
      ([
         res.drops;
         int_of_float (res.data_wire_bytes :> float);
         int_of_float (res.control_wire_bytes :> float);
         res.recomputes;
         res.injected_payload;
         res.delivered_payload;
         res.retransmissions;
         res.ctrl_lost;
         res.nacks_sent;
         res.event_retransmits;
         res.sync_requests;
         res.syncs_sent;
         res.dup_events_absorbed;
         res.divergence_epochs;
         res.terminal_diverged;
         Sim.Engine.now eng;
       ]
      @ res.reconverge_samples @ Array.to_list res.max_queue);
    let digest = hex_digest buf in
    let fcts = Sim.Metrics.fcts_us ~max_size:short_max mt in
    let tputs = U.floats_of (Sim.Metrics.throughputs_gbps ~min_size:long_min mt) in
    let data_b = (res.data_wire_bytes :> float) and ctrl_b = (res.control_wire_bytes :> float) in
    let outputs =
      [
        m "fct_short_p50_us" "us" (percentile fcts 50.0);
        m "fct_short_p99_us" "us" (percentile fcts 99.0);
        m "tput_long_mean_gbps" "Gbps" (mean tputs);
        m "ctrl_overhead_pct" "%" (100.0 *. ctrl_b /. (data_b +. ctrl_b));
      ]
    in
    let layers, coverage_ns, probe_ns =
      match tr with
      | None -> ([], 0, 0)
      | Some tr ->
          let covered = summed_self tr in
          (* Epoch self times inside the arrival window, where the speed
             metric is measured; the drain's near-idle epochs would swamp
             the median otherwise. *)
          let epoch_self = us_of_ns (T.self_samples tr "engine.epoch") in
          let in_window = min (Array.length epoch_self) (last_arrival / rho) in
          let epoch_self = Array.sub epoch_self 0 in_window in
          let hops = !data_hops + !ctrl_hops in
          (* Routing replay: the recorded (src, dst) draws through the same
             public calls the sender makes per packet, after the run so the
             simulation's own RNG stream is untouched. *)
          let rctx = Routing.make (R.topology sim) in
          let rng = Util.Rng.create seed in
          let n = T.Vec.length pairs in
          let w0 = Gc.minor_words () in
          let r0 = T.now_ns () in
          for i = 0 to n - 1 do
            let p = T.Vec.get pairs i in
            let src = p / hosts and dst = p mod hosts in
            let path = Routing.sample_path rctx rng Routing.Rps ~src ~dst in
            let route = Sim.Net.intern_route net path in
            Sim.Net.release_route net route
          done;
          let r1 = T.now_ns () in
          let w1 = Gc.minor_words () in
          let q = Array.map (fun b -> float_of_int b /. 1024.0) res.max_queue in
          let alloc_us = us_of_ns (T.durations tr "waterfill.node_allocations") in
          let start_us = us_of_ns (T.durations tr "sim.start_flow") in
          let reconv = List.fold_left max 0 res.reconverge_samples in
          ( complete_layers
              ([
                 m "engine.epoch_wall_us_p50" "us" (percentile epoch_self 50.0);
                 m "engine.epoch_wall_us_p99" "us" (percentile epoch_self 99.0);
                 count "engine.pending_max" !pending_max;
                 count "net.data_hops" !data_hops;
                 count "net.ctrl_hops" !ctrl_hops;
                 m "net.ns_per_hop" "ns"
                   (if hops = 0 then 0.0
                    else float_of_int (T.self_time tr "engine.epoch") /. float_of_int hops);
                 count "net.packets_high_water" (Sim.Net.packets_high_water net);
                 count "net.drops" res.drops;
                 count "net.ctrl_lost" res.ctrl_lost;
                 m "net.queue_max_kb_p99" "KB" (percentile q 99.0);
                 count "routing.sample_path_calls" n;
                 m "routing.sample_path_ns" "ns" (per (float_of_int (r1 - r0)) n);
                 m "routing.sample_path_words" "words" (per (w1 -. w0) n);
                 count "waterfill.recomputes" res.recomputes;
                 m "waterfill.per_node_alloc_us_p50" "us" (percentile alloc_us 50.0);
                 m "waterfill.per_node_alloc_us_p99" "us" (percentile alloc_us 99.0);
                 m "waterfill.heap_pushes_per_epoch" "count" (ratio !wf_push !wf_epochs);
                 m "waterfill.valid_pop_ratio" "ratio" (ratio !wf_valid !wf_pops);
                 count "rbcast.nacks_sent" res.nacks_sent;
                 count "rbcast.event_retransmits" res.event_retransmits;
                 count "rbcast.syncs_sent" res.syncs_sent;
                 count "rbcast.dup_absorbed" res.dup_events_absorbed;
                 count "rbcast.divergence_epochs" res.divergence_epochs;
                 m "rbcast.reconverge_us_max" "us" (float_of_int reconv /. 1000.0);
                 m "rbcast.useful_ratio" "ratio"
                   (1.0 -. ratio res.dup_events_absorbed !bcast_deliveries);
                 m "sim.start_flow_us_p50" "us" (percentile start_us 50.0);
                 m "sim.start_flow_us_p99" "us" (percentile start_us 99.0);
                 m "sim.start_flow_words" "words" (per !start_words flows);
               ]
              @ gc_layers tr ~before:gc0 ~after:gc1),
            covered,
            T.self_time tr "waterfill.node_allocations" )
    in
    {
      wall_s = float_of_int (t1 - t0 - T.sum kernel.samples) /. 1e9;
      sim_ms = float_of_int (Sim.Engine.now eng) /. 1e6;
      step_ms = float_of_int step /. 1e6;
      step_walls = seconds step_walls;
      kernel_s = seconds kernel.samples;
      minor_words = words1 -. words0;
      digest;
      attempted = flows;
      failed = flows - completed;
      errors = List.rev !errors;
      outputs;
      layers;
      coverage_ns;
      probe_ns;
    }
  in
  {
    wname;
    params =
      [
        ( "topology",
          "torus " ^ String.concat "x" (Array.to_list (Array.map string_of_int dims)) );
        ("flows", string_of_int flows);
        ("tau_ns", Printf.sprintf "%.0f" tau_ns);
        ("sizes", Printf.sprintf "Pareto shape 1.05 mean 100 KB, cap %d MB" (max_size / 1_000_000));
        ("control", if per_node then "Per_node" else "Global_epoch");
        ("rho_ns", string_of_int cfg.recompute_interval_ns);
        ("reliable_bcast", string_of_bool cfg.reliable_bcast);
        ("control_loss", Printf.sprintf "%g" (cfg.control_loss :> float));
      ];
    setup = (fun () -> ignore (create ()));
    rep;
  }

let fig10_global seed =
  sim_workload ~wname:"fig10_global" ~dims:[| 8; 8; 8 |] ~flows:10_000 ~tau_ns:1_000.0
    ~max_size:50_000_000
    ~cfg:{ R.default_config with seed } ~check_control:false seed

let ctrl_lossy seed =
  sim_workload ~wname:"ctrl_lossy" ~dims:[| 4; 4; 4 |] ~flows:2_000 ~tau_ns:8_000.0
    ~max_size:2_000_000
    ~cfg:
      {
        R.default_config with
        seed;
        control = R.Per_node;
        reliable_bcast = true;
        control_loss = U.fraction 0.01;
      }
    ~check_control:true seed

(* -- The library control plane --------------------------------------------- *)

let stack_dims = [| 8; 8; 8 |]
let stack_flows = 30_000
let stack_rho_ns = 25_000
let replicas = 8
let replica_loss = 0.01

type event = { at : int; opening : bool; idx : int }

type stack_names = {
  n_open : T.name;
  n_close : T.name;
  n_recompute : T.name;
  n_digests : T.name;
  n_apply : T.name;
  n_observe : T.name;
  n_replay : T.name;
  n_batch : T.name;
  n_sync : T.name;
}

(* Run [f] in a forked child and return its marshalled result, so the
   child's allocations never reach this process's peak heap. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let code =
        match Marshal.to_channel oc (f ()) [] with
        | () ->
            close_out oc;
            0
        | exception _ -> 1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v = match Marshal.from_channel ic with v -> Some v | exception End_of_file -> None in
      close_in ic;
      let ok =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> true
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> false
      in
      match v with
      | Some v when ok -> v
      | Some _ | None -> failwith "input generation failed in the child process")

(* Departures from a fluid-emulator run, as Fig. 8 does; the flows'
   open/close events in time order. *)
let open_close_trace seed topo specs spec_arr =
  let fluid = Emu.Fluid.run { Emu.Fluid.default_config with seed } topo specs in
  let index : (Workload.Flowgen.spec, int list) Hashtbl.t = Hashtbl.create stack_flows in
  Array.iteri
    (fun i s -> Hashtbl.replace index s (i :: Option.value ~default:[] (Hashtbl.find_opt index s)))
    spec_arr;
  let departures =
    List.map
      (fun (f : Emu.Fluid.flow_result) ->
        match Hashtbl.find_opt index f.spec with
        | Some (i :: rest) ->
            Hashtbl.replace index f.spec rest;
            { at = f.spec.arrival_ns + f.fct_ns; opening = false; idx = i }
        | Some [] | None -> failwith "stack_epochs: fluid result without a spec")
      fluid.flows
  in
  let arrivals =
    Array.to_list
      (Array.mapi
         (fun i (s : Workload.Flowgen.spec) -> { at = s.arrival_ns; opening = true; idx = i })
         spec_arr)
  in
  Array.of_list (List.stable_sort (fun a b -> compare a.at b.at) (arrivals @ departures))

let stack_epochs seed =
  let topo = Topology.torus stack_dims in
  (* §5.2 flows with sizes capped at 2 MB as in Fig. 8; the open/close
     trace exists before timing. *)
  let specs =
    Workload.Flowgen.poisson_pareto ~max_size:2_000_000 topo (Util.Rng.create seed)
      ~flows:stack_flows ~mean_interarrival_ns:1_000.0
  in
  let spec_arr = Array.of_list specs in
  let events = in_child (fun () -> open_close_trace seed topo specs spec_arr) in
  let horizon = events.(Array.length events - 1).at in
  let last_arrival = spec_arr.(stack_flows - 1).arrival_ns in
  let create () = S.create ~seed (Topology.torus stack_dims) in
  let rep tr =
    let stack = create () in
    let trees = (S.config stack).trees_per_source in
    let views = Array.init replicas (fun _ -> V.create ~trees ()) in
    let drop_rng = Util.Rng.create (seed + 7919) in
    let errors = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    let raised = ref 0 in
    (* Replica bookkeeping: [dirty_since] is the trace time of a replica's
       first unrepaired loss, -1 when it holds every event. *)
    let now = ref 0 in
    let dirty_since = Array.make replicas (-1) in
    let reconverge_max = ref 0 and divergence_epochs = ref 0 in
    let deliveries = ref 0 and nacks = ref 0 and syncs = ref 0 in
    let names =
      Option.map
        (fun tr ->
          ( tr,
            {
              n_open = T.name tr "stack.open_flow";
              n_close = T.name tr "stack.close_flow";
              n_recompute = T.name tr "stack.recompute";
              n_digests = T.name tr "stack.emit_digests";
              n_apply = T.name tr "view.apply";
              n_observe = T.name tr "view.observe_digest";
              n_replay = T.name tr "stack.replay_range";
              n_batch = T.name tr "view.apply_batch";
              n_sync = T.name tr "stack.sync_view";
            } ))
        tr
    in
    let span sel f = match names with None -> f () | Some (tr, n) -> T.span tr (sel n) f in
    let apply vi v wire =
      incr deliveries;
      match span (fun n -> n.n_apply) (fun () -> V.apply v wire) with
      | V.Malformed e -> fail "replica %d: malformed broadcast: %s" vi e
      | V.Applied _ | V.Duplicate | V.Buffered -> ()
    in
    S.on_broadcast_seq stack (fun wire ->
        Array.iteri
          (fun vi v ->
            if Util.Rng.float drop_rng 1.0 < replica_loss then begin
              if dirty_since.(vi) < 0 then dirty_since.(vi) <- !now
            end
            else apply vi v wire)
          views);
    let ids = Array.make stack_flows (-1) in
    let recompute_ns = T.Vec.create () in
    let wf_push = ref 0 and wf_pops = ref 0 and wf_valid = ref 0 and wf_epochs = ref 0 in
    let recompute_words = ref 0.0 and epochs = ref 0 in
    let buf = Buffer.create (1 lsl 16) in
    let repair vi v (d : Wire.digest) =
      match span (fun n -> n.n_observe) (fun () -> V.observe_digest v d) with
      | V.Synced -> false
      | V.Gaps gaps ->
          List.iter
            (fun (a, b) ->
              incr nacks;
              match
                span
                  (fun n -> n.n_replay)
                  (fun () -> S.replay_range stack ~tree:d.dtree ~from_seq:a ~to_seq:b)
              with
              | Some batch -> (
                  match
                    span (fun n -> n.n_batch) (fun () -> V.apply_batch v batch)
                  with
                  | Ok verdicts ->
                      List.iter
                        (function
                          | V.Malformed e -> fail "replica %d: malformed repair: %s" vi e
                          | V.Applied _ | V.Duplicate | V.Buffered -> incr deliveries)
                        verdicts
                  | Error e -> fail "replica %d: repair batch: %s" vi e)
              | None ->
                  incr syncs;
                  span (fun n -> n.n_sync) (fun () -> S.sync_view stack v))
            gaps;
          true
      | V.Diverged ->
          incr syncs;
          span (fun n -> n.n_sync) (fun () -> S.sync_view stack v);
          true
    in
    (* Wall time from one epoch boundary to the next: the events of that
       trace interval plus the epoch's own work. *)
    let step_walls = T.Vec.create () and kernel = Refkernel.pacer () in
    let last_epoch_end = ref 0 in
    let epoch () =
      incr epochs;
      (match names with
      | None ->
          let a = T.now_ns () in
          S.recompute stack;
          T.Vec.push recompute_ns (T.now_ns () - a)
      | Some (tr, n) ->
          Congestion.Waterfill.reset_debug_counters ();
          let w = Gc.minor_words () in
          T.span tr n.n_recompute (fun () -> S.recompute stack);
          recompute_words := !recompute_words +. (Gc.minor_words () -. w);
          let d = Congestion.Waterfill.dbg in
          if d.pops > 0 || d.push > 0 then begin
            incr wf_epochs;
            wf_push := !wf_push + d.push;
            wf_pops := !wf_pops + d.pops;
            wf_valid := !wf_valid + d.valid
          end;
          T.gc_poll tr);
      let digests =
        span (fun n -> n.n_digests) (fun () -> S.emit_digests stack)
      in
      let diverged = ref false in
      Array.iteri
        (fun vi v ->
          let repaired = List.fold_left (fun acc d -> repair vi v d || acc) false digests in
          if repaired then diverged := true;
          if dirty_since.(vi) >= 0 && V.caught_up v then begin
            reconverge_max := max !reconverge_max (!now - dirty_since.(vi));
            dirty_since.(vi) <- -1
          end)
        views;
      if !diverged then incr divergence_epochs;
      (* Every eighth epoch the allocation vector joins the digest. *)
      if !epochs land 7 = 0 then
        List.iter
          (fun (id, (g : U.gbps)) ->
            Buffer.add_string buf (Printf.sprintf "%d:%Lx;" id (Int64.bits_of_float (g :> float))))
          (S.allocations stack);
      if !now <= last_arrival then begin
        T.Vec.push step_walls (T.now_ns () - !last_epoch_end);
        Refkernel.tick kernel
      end;
      last_epoch_end := T.now_ns ()
    in
    let gc0 = Gc.quick_stat () in
    let words0 = Gc.minor_words () in
    (match tr with Some tr -> T.gc_start tr | None -> ());
    let t0 = T.now_ns () in
    last_epoch_end := t0;
    let next_epoch = ref stack_rho_ns in
    Array.iter
      (fun ev ->
        while ev.at > !next_epoch do
          now := !next_epoch;
          epoch ();
          next_epoch := !next_epoch + stack_rho_ns
        done;
        now := ev.at;
        let s = spec_arr.(ev.idx) in
        try
          if ev.opening then
            ids.(ev.idx) <-
              span (fun n -> n.n_open) (fun () -> S.open_flow stack ~src:s.src ~dst:s.dst)
          else
            span (fun n -> n.n_close) (fun () -> S.close_flow stack ids.(ev.idx))
        with Invalid_argument e | Failure e ->
          incr raised;
          fail "%s of flow %d raised: %s" (if ev.opening then "open" else "close") ev.idx e)
      events;
    (* Trailing epochs: the last losses are only exposed by digests. *)
    for _ = 1 to 2 do
      now := !next_epoch;
      epoch ();
      next_epoch := !next_epoch + stack_rho_ns
    done;
    let t1 = T.now_ns () in
    let words1 = Gc.minor_words () in
    let gc1 = Gc.quick_stat () in
    let h = S.matrix_hash stack in
    let mismatched = ref 0 in
    Array.iteri
      (fun vi v ->
        if V.matrix_hash v <> h || not (V.caught_up v) then begin
          incr mismatched;
          fail "replica %d: hash %Lx <> stack %Lx" vi (V.matrix_hash v) h
        end)
      views;
    let dups = Array.fold_left (fun acc v -> acc + V.duplicates v) 0 views in
    List.iter
      (fun x -> Buffer.add_string buf (string_of_int x ^ ","))
      ([
         S.control_bytes_sent stack;
         S.reliability_bytes_sent stack;
         S.event_retransmits stack;
         S.syncs_sent stack;
         !nacks;
         !epochs;
         !divergence_epochs;
         !reconverge_max;
         dups;
       ]
      @ Array.to_list (Array.map V.applied views));
    let rec_us =
      match names with
      | None -> us_of_ns (T.Vec.to_floats recompute_ns)
      | Some (tr, _) -> us_of_ns (T.durations tr "stack.recompute")
    in
    let layers, coverage_ns =
      match names with
      | None -> ([], 0)
      | Some (tr, _) ->
          let self_us label = us_of_ns (T.self_samples tr label) in
          ( complete_layers
              ([
                 count "waterfill.recomputes" !wf_epochs;
                 m "waterfill.heap_pushes_per_epoch" "count" (ratio !wf_push !wf_epochs);
                 m "waterfill.valid_pop_ratio" "ratio" (ratio !wf_valid !wf_pops);
                 count "rbcast.nacks_sent" !nacks;
                 count "rbcast.event_retransmits" (S.event_retransmits stack);
                 count "rbcast.syncs_sent" (S.syncs_sent stack);
                 count "rbcast.dup_absorbed" dups;
                 count "rbcast.divergence_epochs" !divergence_epochs;
                 m "rbcast.reconverge_us_max" "us" (float_of_int !reconverge_max /. 1000.0);
                 m "rbcast.useful_ratio" "ratio" (1.0 -. ratio dups !deliveries);
                 m "stack.open_flow_us_p50" "us" (percentile (self_us "stack.open_flow") 50.0);
                 m "stack.open_flow_us_p99" "us" (percentile (self_us "stack.open_flow") 99.0);
                 m "stack.close_flow_us_p50" "us" (percentile (self_us "stack.close_flow") 50.0);
                 m "stack.emit_digests_us_p50" "us"
                   (percentile (us_of_ns (T.durations tr "stack.emit_digests")) 50.0);
                 m "view.apply_ns_p50" "ns" (percentile (T.durations tr "view.apply") 50.0);
                 count "stack.replay_range_calls" !nacks;
                 count "stack.sync_view_calls" !syncs;
                 count "view.duplicates" dups;
                 m "stack.control_bytes" "bytes" (float_of_int (S.control_bytes_sent stack));
                 m "stack.reliability_bytes" "bytes"
                   (float_of_int (S.reliability_bytes_sent stack));
                 m "stack.recompute_words_per_epoch" "words" (per !recompute_words !epochs);
               ]
              @ gc_layers tr ~before:gc0 ~after:gc1),
            summed_self tr )
    in
    {
      wall_s = float_of_int (t1 - t0 - T.sum kernel.samples) /. 1e9;
      sim_ms = float_of_int horizon /. 1e6;
      step_ms = float_of_int stack_rho_ns /. 1e6;
      step_walls = seconds step_walls;
      kernel_s = seconds kernel.samples;
      minor_words = words1 -. words0;
      digest = hex_digest buf;
      attempted = Array.length events + replicas;
      failed = !raised + !mismatched;
      errors = List.rev !errors;
      outputs =
        [
          m "recompute_p50_us" "us" (percentile rec_us 50.0);
          m "recompute_p99_us" "us" (percentile rec_us 99.0);
          count "recompute_samples" (Array.length rec_us);
        ];
      layers;
      coverage_ns;
      probe_ns = 0;
    }
  in
  {
    wname = "stack_epochs";
    params =
      [
        ("topology", "torus 8x8x8");
        ("flows", string_of_int stack_flows);
        ("tau_ns", "1000");
        ("sizes", "Pareto shape 1.05 mean 100 KB, cap 2 MB");
        ("departures", "fluid emulator, rho 500 us");
        ("rho_ns", string_of_int stack_rho_ns);
        ("replicas", string_of_int replicas);
        ("replica_loss", Printf.sprintf "%g" replica_loss);
        ("events", string_of_int (Array.length events));
      ];
    setup = (fun () -> ignore (create ()));
    rep;
  }

let all =
  [ ("fig10_global", fig10_global); ("ctrl_lossy", ctrl_lossy); ("stack_epochs", stack_epochs) ]
