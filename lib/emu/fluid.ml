module U = Util.Units
module Inc = Congestion.Waterfill.Inc

type config = {
  link_gbps : U.gbps;
  headroom : U.fraction;
  recompute_interval_ns : int;
  seed : int;
}

let default_config =
  {
    link_gbps = Topology.link_gbps;
    headroom = Topology.headroom;
    recompute_interval_ns = 500_000;
    seed = 1;
  }

type flow_result = {
  index : int;
  spec : Workload.Flowgen.spec;
  fct_ns : int;
  avg_rate_gbps : U.gbps;
}

type result = {
  flows : flow_result list;
  max_queue_bytes : U.bytes array;
  recomputes : int;
}

(* [Float.max 0.0 x] bit for bit — [+0.0] for every [x <= 0], [x] itself
   for a NaN — without its two [caml_signbit] calls on the clamped path. *)
let[@inline] clamp0 x = if x <= 0.0 then 0.0 else x

(* A flow is one or more sub-flows, each water-filled on its own: an R2C2
   flow has one, over its routing fractions; a PFQ flow has one per path. *)
type fstate = {
  index : int;  (** the flow's position in the input spec list *)
  spec : Workload.Flowgen.spec;
  subs : Congestion.Waterfill.flow array;
  sub_rates : float array;  (** bytes/ns of each sub-flow *)
  pipe_ns : int;
  mutable remaining : float;
  mutable rate : float;  (** bytes/ns, the sum of [sub_rates] *)
  mutable scheduled : bool;  (** has been through a recompute epoch *)
}

(* The event loop both entry points run: [shape idx spec] gives an arriving
   flow's sub-flows, and [interval_ns] = 0 recomputes on every flow event. *)
let engine ~link_gbps ~headroom ~interval_ns ~shape ?until_ns topo specs =
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      Workload.Flowgen.check_flow ~who:"Fluid" topo ~src:s.src ~dst:s.dst ~size:s.size)
    specs;
  let cap = U.to_float (U.byte_rate_of_gbps link_gbps) in
  let link_gbps_f = U.to_float link_gbps in
  let tx = int_of_float (ceil (float_of_int (8 * Topology.mtu) /. link_gbps_f)) in
  let nl = Topology.link_count topo in
  (* The run's one water-filler: every recompute refills it, keyed by slot,
     which computes a fresh state's rates bit for bit. *)
  let alloc = Inc.create ~headroom ~capacities:(U.of_floats (Array.make nl cap)) () in
  let arrivals =
    ref
      (List.mapi (fun i s -> (i, s)) specs
      |> List.stable_sort (fun (_, a) (_, b) ->
             compare a.Workload.Flowgen.arrival_ns b.Workload.Flowgen.arrival_ns))
  in
  let active : fstate list ref = ref [] in
  let finished = ref [] in
  let now = ref 0 in
  let horizon = Option.value ~default:max_int until_ns in
  let recomputes = ref 0 in
  let every_event = interval_ns = 0 in
  let next_epoch = ref (if every_event then max_int else interval_ns) in
  (* Per-link fluid load (bytes/ns), queue estimate and its peak. *)
  let load = Array.make nl 0.0 in
  let queue = Array.make nl 0.0 in
  let max_queue = Array.make nl 0.0 in

  let refresh_load () =
    Array.fill load 0 nl 0.0;
    List.iter
      (fun st ->
        Array.iteri
          (fun j (wf : Congestion.Waterfill.flow) ->
            let r = st.sub_rates.(j) in
            let { Routing.links; fracs; _ } = wf.row in
            for k = 0 to Array.length links - 1 do
              load.(links.(k)) <- load.(links.(k)) +. (r *. (fracs.(k) :> float))
            done)
          st.subs)
      !active
  in

  let recompute ~all =
    incr recomputes;
    let eligible = List.filter (fun st -> all || st.scheduled) !active in
    (* Slots 0.. are the eligible flows' sub-flows, in order. *)
    Inc.clear alloc;
    let k = ref 0 in
    List.iter
      (fun st ->
        Array.iter
          (fun (wf : Congestion.Waterfill.flow) ->
            Inc.add_flow ~weight:wf.weight ~priority:wf.priority ?demand:wf.demand alloc ~id:!k
              wf.row;
            incr k)
          st.subs)
      eligible;
    Inc.allocate alloc;
    let k = ref 0 in
    List.iter
      (fun st ->
        for j = 0 to Array.length st.sub_rates - 1 do
          st.sub_rates.(j) <- Float.max 1e-9 (Inc.rate alloc ~id:!k :> float);
          incr k
        done;
        (* Summed from the last sub-flow to the first, the order the
           pinned PFQ results were computed in. *)
        st.rate <- Array.fold_right (fun r sum -> sum +. r) st.sub_rates 0.0)
      eligible;
    refresh_load ()
  in

  let admit idx (spec : Workload.Flowgen.spec) =
    let subs = shape idx spec in
    let n = Array.length subs in
    let st =
      {
        index = idx;
        spec;
        subs;
        (* Unscheduled flows transmit at line rate into the headroom. *)
        sub_rates = Array.make n (cap /. float_of_int n);
        pipe_ns = Topology.distance topo spec.src spec.dst * (tx + Topology.hop_latency_ns);
        remaining = float_of_int spec.size;
        rate = cap;
        scheduled = false;
      }
    in
    active := st :: !active
  in

  let running = ref true in
  while !running do
    let t_arrival =
      match !arrivals with [] -> max_int | (_, s) :: _ -> s.Workload.Flowgen.arrival_ns
    in
    let t_completion =
      List.fold_left
        (fun acc st ->
          if st.rate > 1e-12 then min acc (!now + int_of_float (ceil (st.remaining /. st.rate)))
          else acc)
        max_int !active
    in
    let t_next = min (min t_arrival t_completion) !next_epoch in
    if (!arrivals = [] && !active = []) || t_next = max_int || t_next > horizon then
      running := false
    else begin
      let dt = float_of_int (t_next - !now) in
      List.iter (fun st -> st.remaining <- clamp0 (st.remaining -. (st.rate *. dt))) !active;
      (* Integrate the queue estimate under the (constant) loads. *)
      for l = 0 to nl - 1 do
        let delta = (load.(l) -. cap) *. dt in
        queue.(l) <- clamp0 (queue.(l) +. delta);
        if queue.(l) > max_queue.(l) then max_queue.(l) <- queue.(l)
      done;
      now := t_next;
      let done_, still = List.partition (fun st -> st.remaining <= 0.5) !active in
      List.iter
        (fun st ->
          let fct = !now - st.spec.Workload.Flowgen.arrival_ns + st.pipe_ns in
          finished :=
            {
              index = st.index;
              spec = st.spec;
              fct_ns = fct;
              avg_rate_gbps =
                U.gbps (float_of_int (8 * st.spec.Workload.Flowgen.size) /. float_of_int fct);
            }
            :: !finished)
        done_;
      active := still;
      let arrived = ref false in
      let rec admit_due () =
        match !arrivals with
        | (i, s) :: rest when s.Workload.Flowgen.arrival_ns <= !now ->
            arrivals := rest;
            arrived := true;
            admit i s;
            admit_due ()
        | _ -> ()
      in
      admit_due ();
      if every_event then begin
        if !arrived || done_ <> [] then begin
          List.iter (fun st -> st.scheduled <- true) !active;
          recompute ~all:true
        end
      end
      else begin
        if !now >= !next_epoch then begin
          while !next_epoch <= !now do
            next_epoch := !next_epoch + interval_ns
          done;
          List.iter (fun st -> st.scheduled <- true) !active;
          recompute ~all:false
        end
        else if done_ <> [] || !arrived then
          (* Between epochs every flow keeps its allocation; only the link
             loads change as flows come and go. *)
          refresh_load ()
      end
    end
  done;
  { flows = List.rev !finished; max_queue_bytes = U.of_floats max_queue; recomputes = !recomputes }

let run ?(protocol_of = fun _ _ -> Routing.Rps) ?until_ns cfg topo specs =
  (* The flow's broadcast carries weight and priority in one byte each. *)
  List.iter
    (fun (s : Workload.Flowgen.spec) ->
      if s.weight < 1 || s.weight > 255 then invalid_arg "Fluid.run: weight outside 1..255";
      if s.priority < 0 || s.priority > 255 then invalid_arg "Fluid.run: priority outside 0..255")
    specs;
  let rctx = Routing.make topo in
  engine ~link_gbps:cfg.link_gbps ~headroom:cfg.headroom ~interval_ns:cfg.recompute_interval_ns
    ?until_ns topo specs ~shape:(fun idx (spec : Workload.Flowgen.spec) ->
      [|
        Congestion.Waterfill.flow
          ~weight:(float_of_int spec.weight)
          ~priority:spec.priority ~id:idx
          (Routing.fractions rctx (protocol_of idx spec) ~src:spec.src ~dst:spec.dst);
      |])

(* Distinct shortest paths a PFQ flow spreads over. *)
let pfq_paths = 8

let run_pfq ?until_ns seed topo specs =
  let rctx = Routing.make topo in
  let rng = Util.Rng.create seed in
  engine ~link_gbps:Topology.link_gbps ~headroom:(U.fraction 0.0) ~interval_ns:0 ?until_ns topo
    specs ~shape:(fun idx (spec : Workload.Flowgen.spec) ->
      Routing.sample_paths_distinct rctx rng ~k:pfq_paths ~src:spec.src ~dst:spec.dst
      |> List.map (fun p ->
             let links = Routing.path_links rctx p in
             Congestion.Waterfill.flow ~id:idx
               (Routing.row ~links ~fracs:(Array.make (Array.length links) (U.fraction 1.0))))
      |> Array.of_list)

let rate_error ?protocol_of ?min_lifetime_ns cfg topo specs ~rho_ns =
  let min_lifetime_ns = Option.value ~default:rho_ns min_lifetime_ns in
  (* Each run's results, by flow index; [None] for a flow that did not
     finish. *)
  let run_with rho =
    let r = run ?protocol_of { cfg with recompute_interval_ns = rho } topo specs in
    let by_index = Array.make (List.length specs) None in
    List.iter (fun (fr : flow_result) -> by_index.(fr.index) <- Some fr) r.flows;
    by_index
  in
  let ideal = run_with 0 and measured = run_with rho_ns in
  let errs = ref [] in
  Array.iteri
    (fun i ideal_result ->
      match (ideal_result, measured.(i)) with
      | Some f0, Some f when U.to_float f0.avg_rate_gbps > 0.0 && f0.fct_ns >= min_lifetime_ns ->
          (* The batched design never rate-limits flows shorter than one
             interval (§3.3.2); like the paper, compare only flows the
             periodic computation actually schedules. *)
          let r0 = U.to_float f0.avg_rate_gbps and r = U.to_float f.avg_rate_gbps in
          errs := (abs_float (r -. r0) /. r0) :: !errs
      | _ -> ())
    ideal;
  Array.of_list !errs
