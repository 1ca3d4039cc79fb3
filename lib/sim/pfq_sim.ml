module U = Util.Units

(* Distinct shortest paths each flow spreads over. *)
let paths_per_flow = 8

type flow_result = {
  spec : Workload.Flowgen.spec;
  fct_ns : int;
  throughput_gbps : U.gbps;
}

type fstate = {
  spec : Workload.Flowgen.spec;
  subflows : (int * U.fraction) array list;  (** link lists of each path *)
  pipe_ns : int;  (** store-and-forward pipeline latency *)
  mutable remaining : float;
  mutable rate : float;  (** bytes/ns over all paths *)
}

let run ?until_ns seed topo specs =
  let rctx = Routing.make topo in
  let rng = Util.Rng.create seed in
  let link_gbps_f = U.to_float Topology.link_gbps in
  let cap = U.byte_rate_of_gbps Topology.link_gbps in
  let capacities = Array.make (Topology.link_count topo) cap in
  let arrivals =
    ref (List.stable_sort (fun a b -> compare a.Workload.Flowgen.arrival_ns b.arrival_ns) specs)
  in
  let active : fstate list ref = ref [] in
  let finished = ref [] in
  let now = ref 0 in
  let horizon = Option.value ~default:max_int until_ns in

  let recompute () =
    let subs = ref [] in
    List.iter
      (fun st -> List.iter (fun links -> subs := (st, links) :: !subs) st.subflows)
      !active;
    let subs = Array.of_list !subs in
    let wf =
      Array.mapi (fun i (_, links) -> Congestion.Waterfill.flow ~id:i links) subs
    in
    let rates = U.floats_of (Congestion.Waterfill.allocate ~capacities wf) in
    List.iter (fun st -> st.rate <- 0.0) !active;
    Array.iteri (fun i (st, _) -> st.rate <- st.rate +. rates.(i)) subs
  in

  let admit spec =
    let open Workload.Flowgen in
    let paths =
      Routing.sample_paths_distinct rctx rng ~k:paths_per_flow ~src:spec.src ~dst:spec.dst
    in
    let subflows =
      List.map
        (fun p -> Array.map (fun l -> (l, U.fraction 1.0)) (Routing.path_links rctx p))
        paths
    in
    let hops = Topology.distance topo spec.src spec.dst in
    let tx = int_of_float (ceil (float_of_int (8 * Topology.mtu) /. link_gbps_f)) in
    let pipe_ns = hops * (tx + Topology.hop_latency_ns) in
    active :=
      { spec; subflows; pipe_ns; remaining = float_of_int spec.size; rate = 0.0 } :: !active
  in

  let running = ref true in
  while !running do
    (* Next event: an arrival or the earliest completion at current rates. *)
    let t_arrival =
      match !arrivals with [] -> max_int | s :: _ -> s.Workload.Flowgen.arrival_ns
    in
    let t_completion =
      List.fold_left
        (fun acc st ->
          if st.rate > 1e-12 then
            min acc (!now + int_of_float (ceil (st.remaining /. st.rate)))
          else acc)
        max_int !active
    in
    let t_next = min t_arrival t_completion in
    if t_next = max_int || t_next > horizon then running := false
    else begin
      let dt = float_of_int (t_next - !now) in
      List.iter
        (fun st -> st.remaining <- Float.max 0.0 (st.remaining -. (st.rate *. dt)))
        !active;
      now := t_next;
      (* Completions first, then arrivals, then one recomputation. *)
      let done_, still = List.partition (fun st -> st.remaining <= 0.5) !active in
      List.iter
        (fun st ->
          let fct = !now - st.spec.Workload.Flowgen.arrival_ns + st.pipe_ns in
          finished :=
            {
              spec = st.spec;
              fct_ns = fct;
              throughput_gbps = U.gbps (float_of_int (8 * st.spec.size) /. float_of_int fct);
            }
            :: !finished)
        done_;
      active := still;
      let rec admit_due () =
        match !arrivals with
        | s :: rest when s.Workload.Flowgen.arrival_ns <= !now ->
            arrivals := rest;
            admit s;
            admit_due ()
        | _ -> ()
      in
      admit_due ();
      if done_ <> [] || t_next = t_arrival then recompute ()
    end
  done;
  List.rev !finished
