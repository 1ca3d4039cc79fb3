type protocol = Rps | Dor | Vlb | Wlb

let all_protocols = [ Rps; Dor; Vlb; Wlb ]

let protocol_to_int = function Rps -> 0 | Dor -> 1 | Vlb -> 2 | Wlb -> 3

let protocol_of_int = function
  | 0 -> Some Rps
  | 1 -> Some Dor
  | 2 -> Some Vlb
  | 3 -> Some Wlb
  | _ -> None

let protocol_name = function Rps -> "RPS" | Dor -> "DOR" | Vlb -> "VLB" | Wlb -> "WLB"
let pp_protocol ppf p = Format.pp_print_string ppf (protocol_name p)

let wlb_beta = 0.5

(* Gray-failure quarantine (DESIGN.md §12): a suspect link is demoted, not
   deleted — its sampling weight shrinks so spraying, waypoint choice and
   the fraction DP route most (but not all) traffic around it, and the
   residual trickle keeps probing it so probation can observe recovery. *)
type health = Healthy | Probation | Quarantined

let probation_weight = 0.5
let quarantine_weight = 0.125
let hrank = function Healthy -> 0 | Probation -> 1 | Quarantined -> 2

let hweight = function
  | Healthy -> 1.0
  | Probation -> probation_weight
  | Quarantined -> quarantine_weight

type ctx = {
  topo : Topology.t;
  frac_cache : (int, (int * float) array) Hashtbl.t;
      (* key = (protocol, src, dst) packed; sparse link fractions *)
  vlb_a : (int, float array) Hashtbl.t;  (* per source: sum over waypoints of minimal fractions *)
  vlb_b : (int, float array) Hashtbl.t;  (* per destination *)
  wlb_dist : (int, float array) Hashtbl.t;  (* per (src,dst): waypoint prefix weights *)
  mutable cache_version : int;  (* combined stamp the caches were built against *)
  quar : (int, health) Hashtbl.t;  (* per directed link; absent = Healthy *)
  mutable demoted : int;  (* directed links currently not Healthy *)
  mutable quar_version : int;  (* bumped on every health transition *)
}

let make topo =
  {
    topo;
    frac_cache = Hashtbl.create 1024;
    vlb_a = Hashtbl.create 64;
    vlb_b = Hashtbl.create 64;
    wlb_dist = Hashtbl.create 256;
    cache_version = Topology.version topo;
    quar = Hashtbl.create 16;
    demoted = 0;
    quar_version = 0;
  }

(* Every cached structure bakes in the down-state and link-health it was
   computed under; flush wholesale when either version moved. Both counters
   only grow, so their sum is a monotone combined stamp. *)
let sync ctx =
  let v = Topology.version ctx.topo + ctx.quar_version in
  if v <> ctx.cache_version then begin
    Hashtbl.reset ctx.frac_cache;
    Hashtbl.reset ctx.vlb_a;
    Hashtbl.reset ctx.vlb_b;
    Hashtbl.reset ctx.wlb_dist;
    ctx.cache_version <- v
  end

let topo ctx = ctx.topo

(* -- link-health state machine ------------------------------------------ *)

let link_weight ctx l =
  match Hashtbl.find_opt ctx.quar l with None -> 1.0 | Some h -> hweight h

let quar_cable ctx u v =
  match (Topology.find_link ctx.topo u v, Topology.find_link ctx.topo v u) with
  | Some a, Some b -> (a, b)
  | _ -> invalid_arg "Routing: vertices not adjacent"

let set_health ctx u v h =
  let a, b = quar_cable ctx u v in
  let set l =
    let cur =
      match Hashtbl.find_opt ctx.quar l with None -> Healthy | Some x -> x
    in
    if hrank cur <> hrank h then begin
      (match h with
      | Healthy ->
          Hashtbl.remove ctx.quar l;
          ctx.demoted <- ctx.demoted - 1
      | Probation | Quarantined ->
          if hrank cur = 0 then ctx.demoted <- ctx.demoted + 1;
          Hashtbl.replace ctx.quar l h);
      ctx.quar_version <- ctx.quar_version + 1
    end
  in
  set a;
  set b

let note_suspect ctx u v = set_health ctx u v Quarantined
let note_probation ctx u v = set_health ctx u v Probation
let note_recovered ctx u v = set_health ctx u v Healthy

let link_health ctx u v =
  let a, _ = quar_cable ctx u v in
  match Hashtbl.find_opt ctx.quar a with None -> Healthy | Some h -> h

let demoted_links ctx = ctx.demoted

(* A waypoint sitting behind a quarantined cable is demoted from VLB/WLB
   waypoint choice with the same weight the cable itself gets. Checked
   only when something is demoted, so clean runs pay nothing. *)
let node_shadowed ctx w =
  ctx.demoted > 0
  && Array.exists
       (fun (_, l) ->
         match Hashtbl.find_opt ctx.quar l with
         | Some Quarantined -> true
         | Some (Healthy | Probation) | None -> false)
       (Topology.out_links ctx.topo w)

let pack ctx p ~src ~dst =
  let n = Topology.vertex_count ctx.topo in
  ((protocol_to_int p * n) + src) * n + dst

(* -- path sampling ------------------------------------------------------ *)

let walk_minimal ctx rng ~src ~dst =
  (* Random shortest path: spray uniformly over productive hops at every
     vertex — health-weighted instead when any link is demoted. The
     [demoted = 0] branch is the exact legacy draw, so runs without
     quarantine consume the identical RNG stream. *)
  let rec go acc u =
    if u = dst then List.rev (dst :: acc)
    else begin
      let hops = Topology.productive_hops ctx.topo u ~dst in
      if Array.length hops = 0 then invalid_arg "Routing: destination unreachable";
      let v =
        if ctx.demoted = 0 then fst (Util.Rng.pick rng hops)
        else begin
          let weights = Array.map (fun (_, l) -> link_weight ctx l) hops in
          fst hops.(Util.Rng.categorical rng weights)
        end
      in
      go (u :: acc) v
    end
  in
  Array.of_list (go [] src)

let path_alive ctx path =
  let t = ctx.topo in
  let ok = ref true in
  for i = 0 to Array.length path - 2 do
    let l = Topology.find_link_id t path.(i) path.(i + 1) in
    if l < 0 || not (Topology.link_alive t l) then ok := false
  done;
  !ok

(* Dimension-ordered paths. On a torus an exact half-way offset can be
   corrected in either wrap direction; destination-tag routing uses both
   evenly, so we enumerate every tie combination with its probability
   (at most 2^dims weighted paths). *)
let dor_torus_paths ctx ~src ~dst =
  let t = ctx.topo in
  let dims = match Topology.kind t with
    | Topology.Torus d | Topology.Mesh d -> d
    | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ -> assert false
  in
  let wrap =
    match Topology.kind t with
    | Topology.Torus _ -> true
    | Topology.Mesh _ | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ ->
        false
  in
  let cd = Topology.coords t dst in
  (* steps_choices.(i): list of (step, probability) for dimension i. *)
  let c0 = Topology.coords t src in
  let choices =
    Array.mapi
      (fun i k ->
        if c0.(i) = cd.(i) then [ (0, 1.0) ]
        else if not wrap then [ ((if cd.(i) > c0.(i) then 1 else -1), 1.0) ]
        else begin
          let fwd = (cd.(i) - c0.(i) + k) mod k in
          if fwd < k - fwd then [ (1, 1.0) ]
          else if fwd > k - fwd then [ (-1, 1.0) ]
          else [ (1, 0.5); (-1, 0.5) ]
        end)
      dims
  in
  let rec expand i acc_steps acc_prob =
    if i = Array.length dims then begin
      let c = Array.copy c0 in
      let path = ref [ src ] in
      List.iteri
        (fun dim step ->
          let k = dims.(dim) in
          while c.(dim) <> cd.(dim) do
            c.(dim) <- (c.(dim) + step + k) mod k;
            path := Topology.of_coords t c :: !path
          done)
        (List.rev acc_steps);
      [ (Array.of_list (List.rev !path), acc_prob) ]
    end
    else
      List.concat_map
        (fun (step, p) -> expand (i + 1) (step :: acc_steps) (acc_prob *. p))
        choices.(i)
  in
  expand 0 [] 1.0

let dor_torus_path ctx rng ~src ~dst =
  let paths = dor_torus_paths ctx ~src ~dst in
  match paths with
  | [ (p, _) ] -> p
  | _ ->
      let weights = Array.of_list (List.map snd paths) in
      let i = Util.Rng.categorical rng weights in
      fst (List.nth paths i)

let deterministic_min_path ctx ~src ~dst =
  (* Fallback single shortest path for non-grid topologies: lowest-id
     productive hop at every step. *)
  let rec go acc u =
    if u = dst then List.rev (dst :: acc)
    else begin
      let hops = Topology.productive_hops ctx.topo u ~dst in
      let best =
        Array.fold_left
          (fun best (v, _) -> match best with Some b when b <= v -> best | _ -> Some v)
          None hops
      in
      match best with
      | Some v -> go (u :: acc) v
      | None -> invalid_arg "Routing: destination unreachable"
    end
  in
  Array.of_list (go [] src)

let dor_path ctx rng ~src ~dst =
  match Topology.kind ctx.topo with
  | Topology.Torus _ | Topology.Mesh _ ->
      let p = dor_torus_path ctx rng ~src ~dst in
      (* Dimension-order paths ignore down-state; detour on the surviving
         shortest-path DAG when the coordinate path crosses a dead link. *)
      if path_alive ctx p then p else walk_minimal ctx rng ~src ~dst
  | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ ->
      deterministic_min_path ctx ~src ~dst

let dor_paths_weighted ctx ~src ~dst =
  match Topology.kind ctx.topo with
  | Topology.Torus _ | Topology.Mesh _ -> dor_torus_paths ctx ~src ~dst
  | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ ->
      [ (deterministic_min_path ctx ~src ~dst, 1.0) ]

let concat_phases p1 p2 =
  (* [p1] ends where [p2] starts; drop the duplicated waypoint. *)
  Array.append p1 (Array.sub p2 1 (Array.length p2 - 1))

let wlb_waypoint_weights ctx ~src ~dst =
  let key = (src * Topology.vertex_count ctx.topo) + dst in
  match Hashtbl.find_opt ctx.wlb_dist key with
  | Some w -> w
  | None ->
      let t = ctx.topo in
      let h = Topology.host_count t in
      let base = Topology.distance t src dst in
      if base = max_int then invalid_arg "Routing: destination unreachable";
      let weights =
        Array.init h (fun w ->
            let dsw = Topology.distance t src w and dwd = Topology.distance t w dst in
            (* Dead or cut-off waypoints get zero weight; shadowed ones are
               demoted, not deleted. *)
            if dsw = max_int || dwd = max_int then 0.0
            else begin
              let base_w = wlb_beta ** float_of_int (dsw + dwd - base) in
              if node_shadowed ctx w then base_w *. quarantine_weight
              else base_w
            end)
      in
      (* Prefix sums for O(log n) sampling. *)
      let prefix = Array.make h 0.0 in
      let acc = ref 0.0 in
      for i = 0 to h - 1 do
        acc := !acc +. weights.(i);
        prefix.(i) <- !acc
      done;
      Hashtbl.replace ctx.wlb_dist key prefix;
      prefix

let sample_prefix rng prefix =
  let total = prefix.(Array.length prefix - 1) in
  let x = Util.Rng.float rng total in
  (* Binary search for the first prefix >= x. *)
  let lo = ref 0 and hi = ref (Array.length prefix - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if prefix.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

let two_phase ctx rng ~src ~dst w =
  if w = src then walk_minimal ctx rng ~src ~dst
  else if w = dst then walk_minimal ctx rng ~src ~dst
  else concat_phases (walk_minimal ctx rng ~src ~dst:w) (walk_minimal ctx rng ~src:w ~dst)

let sample_path ctx rng p ~src ~dst =
  if src = dst then invalid_arg "Routing.sample_path: src = dst";
  sync ctx;
  match p with
  | Rps -> walk_minimal ctx rng ~src ~dst
  | Dor -> dor_path ctx rng ~src ~dst
  | Vlb ->
      let t = ctx.topo in
      let h = Topology.host_count t in
      (* Resample until the waypoint is alive and connects both phases;
         degenerate to a single minimal phase if none is found quickly.
         A quarantine-shadowed waypoint is kept only with its demoted
         weight (never outright rejected forever: the last try accepts),
         so suspect regions still see a probing trickle. *)
      let rec draw tries =
        if tries = 0 then src
        else begin
          let w = Util.Rng.int rng h in
          if w = src || w = dst then w
          else if Topology.reachable t src w && Topology.reachable t w dst then
            if
              node_shadowed ctx w
              && tries > 1
              && Util.Rng.float rng 1.0 >= quarantine_weight
            then draw (tries - 1)
            else w
          else draw (tries - 1)
        end
      in
      two_phase ctx rng ~src ~dst (draw 32)
  | Wlb ->
      let prefix = wlb_waypoint_weights ctx ~src ~dst in
      let w = sample_prefix rng prefix in
      let marginal = if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1) in
      (* A zero-weight (dead) waypoint can only surface on an exact
         prefix-sum tie; degrade to the single minimal phase. *)
      let w = if marginal > 0.0 then w else src in
      two_phase ctx rng ~src ~dst w

let ecmp_path ctx ~flow_id ~src ~dst =
  sync ctx;
  let seed = (flow_id * 1000003) lxor (src * 8191) lxor dst in
  let rng = Util.Rng.create seed in
  walk_minimal ctx rng ~src ~dst

let path_links ctx path =
  Array.init
    (Array.length path - 1)
    (fun i ->
      let l = Topology.find_link_id ctx.topo path.(i) path.(i + 1) in
      if l < 0 then invalid_arg "Routing.path_links: non-adjacent vertices";
      l)

let sample_paths_distinct ctx rng ~k ~src ~dst =
  sync ctx;
  let seen = Hashtbl.create 16 in
  let paths = ref [] in
  let tries = ref 0 in
  while Hashtbl.length seen < k && !tries < 8 * k do
    incr tries;
    let p = walk_minimal ctx rng ~src ~dst in
    let key = String.concat "," (Array.to_list (Array.map string_of_int p)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      paths := p :: !paths
    end
  done;
  List.rev !paths

(* -- link fractions ----------------------------------------------------- *)

let min_fractions_uncached ctx ~src ~dst =
  (* DP over the shortest-path DAG: probability mass splits uniformly over
     productive hops at every vertex. *)
  let t = ctx.topo in
  let d = Topology.dist_to t dst in
  if d.(src) = max_int then invalid_arg "Routing: destination unreachable";
  let layers = Array.make (d.(src) + 1) [] in
  layers.(d.(src)) <- [ src ];
  let prob = Hashtbl.create 32 in
  Hashtbl.replace prob src 1.0;
  let frac = Hashtbl.create 32 in
  (* Mass deposits on link [l] and flows into [v]. *)
  let deposit v l share =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt frac l) in
    Hashtbl.replace frac l (cur +. share);
    match Hashtbl.find_opt prob v with
    | Some q -> Hashtbl.replace prob v (q +. share)
    | None ->
        Hashtbl.replace prob v share;
        layers.(d.(v)) <- v :: layers.(d.(v))
  in
  for layer = d.(src) downto 1 do
    List.iter
      (fun u ->
        let p = Hashtbl.find prob u in
        let hops = Topology.productive_hops t u ~dst in
        if ctx.demoted = 0 then begin
          (* Uniform split — the exact legacy arithmetic. *)
          let share = p /. float_of_int (Array.length hops) in
          Array.iter (fun (v, l) -> deposit v l share) hops
        end
        else begin
          let wtot =
            Array.fold_left (fun acc (_, l) -> acc +. link_weight ctx l) 0.0 hops
          in
          Array.iter
            (fun (v, l) -> deposit v l (p *. link_weight ctx l /. wtot))
            hops
        end)
      layers.(layer)
  done;
  Util.Tbl.sorted_bindings ~cmp:Int.compare frac

let dor_fractions ctx ~src ~dst =
  let acc = Hashtbl.create 16 in
  let add l p =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt acc l) in
    Hashtbl.replace acc l (cur +. p)
  in
  (* Probability mass of coordinate paths crossing a dead link detours over
     the surviving shortest-path DAG, mirroring the data plane's fallback. *)
  let dead = ref 0.0 in
  List.iter
    (fun (path, p) ->
      if path_alive ctx path then Array.iter (fun l -> add l p) (path_links ctx path)
      else dead := !dead +. p)
    (dor_paths_weighted ctx ~src ~dst);
  if !dead > 0.0 then
    Array.iter (fun (l, f) -> add l (!dead *. f)) (min_fractions_uncached ctx ~src ~dst);
  Util.Tbl.sorted_bindings ~cmp:Int.compare acc

let accumulate_dense dense scale sparse =
  Array.iter (fun (l, f) -> dense.(l) <- dense.(l) +. (scale *. f)) sparse

let vlb_a ctx src =
  match Hashtbl.find_opt ctx.vlb_a src with
  | Some a -> a
  | None ->
      let t = ctx.topo in
      let dense = Array.make (Topology.link_count t) 0.0 in
      for w = 0 to Topology.host_count t - 1 do
        if w <> src && Topology.reachable t src w then
          accumulate_dense dense 1.0 (min_fractions_uncached ctx ~src ~dst:w)
      done;
      Hashtbl.replace ctx.vlb_a src dense;
      dense

let vlb_b ctx dst =
  match Hashtbl.find_opt ctx.vlb_b dst with
  | Some b -> b
  | None ->
      let t = ctx.topo in
      let dense = Array.make (Topology.link_count t) 0.0 in
      for w = 0 to Topology.host_count t - 1 do
        if w <> dst && Topology.reachable t w dst then
          accumulate_dense dense 1.0 (min_fractions_uncached ctx ~src:w ~dst)
      done;
      Hashtbl.replace ctx.vlb_b dst dense;
      dense

let sparse_of_dense dense =
  let acc = ref [] in
  for l = Array.length dense - 1 downto 0 do
    if dense.(l) > 1e-12 then acc := (l, dense.(l)) :: !acc
  done;
  Array.of_list !acc

let vlb_fractions ctx ~src ~dst =
  (* Expected load: average over uniform waypoints of phase-1 plus phase-2
     minimal fractions. Waypoints equal to src or dst degenerate to a single
     minimal phase, which the sums already capture (the degenerate phase
     contributes nothing). *)
  let t = ctx.topo in
  (* Waypoints are drawn from hosts that are up and connect both phases;
     under no failures this is every host. *)
  let valid = ref 0 in
  for w = 0 to Topology.host_count t - 1 do
    if
      Topology.node_alive t w
      && (w = src || Topology.reachable t src w)
      && (w = dst || Topology.reachable t w dst)
    then incr valid
  done;
  if !valid = 0 then invalid_arg "Routing: destination unreachable";
  let h = float_of_int !valid in
  let a = vlb_a ctx src and b = vlb_b ctx dst in
  let dense = Array.make (Array.length a) 0.0 in
  Array.iteri (fun l x -> dense.(l) <- (x +. b.(l)) /. h) a;
  sparse_of_dense dense

let wlb_fractions ctx ~src ~dst =
  let t = ctx.topo in
  let h = Topology.host_count t in
  let prefix = wlb_waypoint_weights ctx ~src ~dst in
  let total = prefix.(h - 1) in
  let dense = Array.make (Topology.link_count t) 0.0 in
  for w = 0 to h - 1 do
    let weight = (if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1)) /. total in
    if weight > 0.0 then begin
      if w <> src && w <> dst then begin
        accumulate_dense dense weight (min_fractions_uncached ctx ~src ~dst:w);
        accumulate_dense dense weight (min_fractions_uncached ctx ~src:w ~dst)
      end
      else accumulate_dense dense weight (min_fractions_uncached ctx ~src ~dst)
    end
  done;
  sparse_of_dense dense

let fractions_raw ctx p ~src ~dst =
  if src = dst then invalid_arg "Routing.fractions: src = dst";
  sync ctx;
  let key = pack ctx p ~src ~dst in
  match Hashtbl.find_opt ctx.frac_cache key with
  | Some f -> f
  | None ->
      let f =
        match p with
        | Rps -> min_fractions_uncached ctx ~src ~dst
        | Dor -> dor_fractions ctx ~src ~dst
        | Vlb -> vlb_fractions ctx ~src ~dst
        | Wlb -> wlb_fractions ctx ~src ~dst
      in
      Hashtbl.replace ctx.frac_cache key f;
      f

let fractions ctx p ~src ~dst =
  Util.Units.pairs_of_floats (fractions_raw ctx p ~src ~dst)
