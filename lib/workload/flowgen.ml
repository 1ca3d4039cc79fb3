type spec = {
  arrival_ns : int;
  src : int;
  dst : int;
  size : int;
  weight : int;
  priority : int;
}

let check_flow ~who topo ~src ~dst ~size =
  let h = Topology.host_count topo in
  if src < 0 || src >= h || dst < 0 || dst >= h then invalid_arg (who ^ ": endpoint is not a host");
  if src = dst then invalid_arg (who ^ ": flow with src = dst");
  if size <= 0 then invalid_arg (who ^ ": non-positive flow size")

let pareto_size rng ~shape ~mean ~max_size =
  (* Pareto mean = shape * scale / (shape - 1); invert for the scale. *)
  if shape <= 1.0 then invalid_arg "Flowgen.pareto_size: shape must exceed 1";
  let scale = mean *. (shape -. 1.0) /. shape in
  let x = Util.Rng.pareto rng ~shape ~scale in
  let v = int_of_float (Float.round x) in
  max 1 (min v max_size)

let random_pair topo rng =
  let h = Topology.host_count topo in
  let src = Util.Rng.int rng h in
  let rec pick () =
    let d = Util.Rng.int rng h in
    if d = src then pick () else d
  in
  (src, pick ())

let poisson_arrivals rng ~flows ~mean_interarrival_ns =
  let t = ref 0.0 in
  List.init flows (fun _ ->
      t := !t +. Util.Rng.exponential rng ~mean:mean_interarrival_ns;
      int_of_float !t)

(* The §5.2 size distribution: Pareto with shape 1.05 and mean 100 KB. *)
let pareto_shape = 1.05
let pareto_mean = 100_000.0

let poisson_pareto ?(max_size = 50_000_000) ?(priority = 0) topo rng ~flows
    ~mean_interarrival_ns =
  List.map
    (fun arrival_ns ->
      let src, dst = random_pair topo rng in
      let size = pareto_size rng ~shape:pareto_shape ~mean:pareto_mean ~max_size in
      { arrival_ns; src; dst; size; weight = 1; priority })
    (poisson_arrivals rng ~flows ~mean_interarrival_ns)

let fixed_size topo rng ~flows ~size ~mean_interarrival_ns =
  List.map
    (fun arrival_ns ->
      let src, dst = random_pair topo rng in
      { arrival_ns; src; dst; size; weight = 1; priority = 0 })
    (poisson_arrivals rng ~flows ~mean_interarrival_ns)

let permutation_long_flows topo rng ~load =
  let load = (load : Util.Units.fraction :> float) in
  if load < 0.0 || load > 1.0 then invalid_arg "Flowgen.permutation_long_flows: load";
  let h = Topology.host_count topo in
  let sources = Util.Rng.permutation rng h in
  let dests = Util.Rng.permutation rng h in
  let n = int_of_float (Float.round (load *. float_of_int h)) in
  (* Repair self-pairs: swap the colliding destination with one that keeps
     both positions valid. Always possible for h >= 3. *)
  for i = 0 to n - 1 do
    if dests.(i) = sources.(i) then begin
      let j = ref (-1) in
      for cand = 0 to h - 1 do
        if !j < 0 && cand <> i && dests.(cand) <> sources.(i)
           && (cand >= n || dests.(i) <> sources.(cand))
        then j := cand
      done;
      assert (!j >= 0);
      let tmp = dests.(i) in
      dests.(i) <- dests.(!j);
      dests.(!j) <- tmp
    end
  done;
  List.init n (fun i ->
      { arrival_ns = 0; src = sources.(i); dst = dests.(i); size = max_int / 2; weight = 1; priority = 0 })

(* Partition/aggregate incast: each aggregator fans a request to [fanout]
   workers and every worker answers at once — the responses of one round
   all converge on the aggregator's ingress links in the same instant,
   which is exactly the surge the overload controller must survive. The
   aggregator set is a fixed permutation prefix; workers are re-drawn per
   round, so the whole workload is a pure function of the RNG. *)
(* Bytes each worker answers with. *)
let response_size = 20_000

let partition_aggregate ?(priority = 0) topo rng ~aggregators ~fanout ~rounds
    ~round_interval_ns =
  let h = Topology.host_count topo in
  if aggregators < 1 || aggregators > h then
    invalid_arg "Flowgen.partition_aggregate: aggregators out of [1, hosts]";
  if fanout < 1 || fanout > h - 1 then
    invalid_arg "Flowgen.partition_aggregate: fanout out of [1, hosts - 1]";
  if rounds < 1 then invalid_arg "Flowgen.partition_aggregate: rounds < 1";
  if round_interval_ns < 0 then
    invalid_arg "Flowgen.partition_aggregate: negative round interval";
  let aggs = Array.sub (Util.Rng.permutation rng h) 0 aggregators in
  let out = ref [] in
  for r = 0 to rounds - 1 do
    let arrival_ns = r * round_interval_ns in
    Array.iter
      (fun agg ->
        let perm = Util.Rng.permutation rng h in
        let picked = ref 0 and i = ref 0 in
        while !picked < fanout do
          let w = perm.(!i) in
          incr i;
          if w <> agg then begin
            incr picked;
            out :=
              { arrival_ns; src = w; dst = agg; size = response_size; weight = 1; priority }
              :: !out
          end
        done)
      aggs
  done;
  List.rev !out

let short_fraction specs ~threshold =
  let n = List.length specs in
  if n = 0 then Util.Units.fraction 0.0
  else begin
    let small = List.length (List.filter (fun s -> s.size < threshold) specs) in
    Util.Units.fraction (float_of_int small /. float_of_int n)
  end

let bytes_in_small specs ~threshold =
  let total = List.fold_left (fun acc s -> acc +. float_of_int s.size) 0.0 specs in
  if total = 0.0 then Util.Units.fraction 0.0
  else begin
    let small =
      List.fold_left
        (fun acc s -> if s.size < threshold then acc +. float_of_int s.size else acc)
        0.0 specs
    in
    Util.Units.fraction (small /. total)
  end
