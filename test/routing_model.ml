(* Reference model for Routing's kernels: the hashtable DP, the list
   walker and the DOR/VLB/WLB composition that Routing used before both
   kernels moved onto flat scratch buffers. The differential tests in
   test_routing.ml check Routing against it bit for bit (link fractions)
   and draw for draw (sampled paths and the RNG state they leave behind).

   Only the public API is read: link health through [Routing.link_health],
   distances and down-state through [Topology]. Productive hops are
   filtered here from [Topology.out_links], independently of Topology's
   own predicate. A model is valid for the down-state and link health it
   was made under; make a fresh one after any fail/restore or health
   transition. *)

type t = {
  ctx : Routing.ctx;  (* read for link health only *)
  topo : Topology.t;
  vlb_a : (int, float array) Hashtbl.t;
  vlb_b : (int, float array) Hashtbl.t;
  wlb_dist : (int, float array) Hashtbl.t;
  dp : (int, (int * float) array) Hashtbl.t;  (* memoised DP rows *)
}

let make ctx =
  {
    ctx;
    topo = Routing.topo ctx;
    vlb_a = Hashtbl.create 64;
    vlb_b = Hashtbl.create 64;
    wlb_dist = Hashtbl.create 256;
    dp = Hashtbl.create 1024;
  }

let demoted m = Routing.demoted_links m.ctx > 0

let health m l =
  Routing.link_health m.ctx (Topology.link_src m.topo l) (Topology.link_dst m.topo l)

let link_weight m l =
  match health m l with
  | Routing.Healthy -> 1.0
  | Routing.Probation -> Routing.probation_weight
  | Routing.Quarantined -> Routing.quarantine_weight

let node_shadowed m w =
  demoted m
  && Array.exists
       (fun (_, l) ->
         match health m l with
         | Routing.Quarantined -> true
         | Routing.Healthy | Routing.Probation -> false)
       (Topology.out_links m.topo w)

let productive_hops m u ~dst =
  if u = dst then [||]
  else begin
    let d = Topology.dist_to m.topo dst in
    let du = d.(u) in
    if du = max_int then [||]
    else
      Array.of_list
        (List.filter
           (fun (v, l) -> d.(v) = du - 1 && Topology.link_alive m.topo l)
           (Array.to_list (Topology.out_links m.topo u)))
  end

let sorted_bindings tbl = Util.Tbl.sorted_bindings ~cmp:Int.compare tbl

(* -- path sampling ---------------------------------------------------------- *)

let walk_minimal m rng ~src ~dst =
  let rec go acc u =
    if u = dst then List.rev (dst :: acc)
    else begin
      let hops = productive_hops m u ~dst in
      if Array.length hops = 0 then invalid_arg "Routing: destination unreachable";
      let v =
        if not (demoted m) then fst (Util.Rng.pick rng hops)
        else begin
          let weights = Array.map (fun (_, l) -> link_weight m l) hops in
          fst hops.(Util.Rng.categorical rng weights)
        end
      in
      go (u :: acc) v
    end
  in
  Array.of_list (go [] src)

let path_alive m path =
  let ok = ref true in
  for i = 0 to Array.length path - 2 do
    let l = Topology.find_link_id m.topo path.(i) path.(i + 1) in
    if l < 0 || not (Topology.link_alive m.topo l) then ok := false
  done;
  !ok

let path_links m path =
  Array.init
    (Array.length path - 1)
    (fun i -> Topology.find_link_id m.topo path.(i) path.(i + 1))

let dor_torus_paths m ~src ~dst =
  let t = m.topo in
  let dims, wrap =
    match Topology.kind t with
    | Topology.Torus d -> (d, true)
    | Topology.Mesh d -> (d, false)
    | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ -> assert false
  in
  let cd = Topology.coords t dst in
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

let deterministic_min_path m ~src ~dst =
  let rec go acc u =
    if u = dst then List.rev (dst :: acc)
    else begin
      let best =
        Array.fold_left
          (fun best (v, _) -> match best with Some b when b <= v -> best | _ -> Some v)
          None (productive_hops m u ~dst)
      in
      match best with
      | Some v -> go (u :: acc) v
      | None -> invalid_arg "Routing: destination unreachable"
    end
  in
  Array.of_list (go [] src)

let gridded m =
  match Topology.kind m.topo with
  | Topology.Torus _ | Topology.Mesh _ -> true
  | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ -> false

let dor_path m rng ~src ~dst =
  if gridded m then begin
    let p =
      match dor_torus_paths m ~src ~dst with
      | [ (p, _) ] -> p
      | paths ->
          let i = Util.Rng.categorical rng (Array.of_list (List.map snd paths)) in
          fst (List.nth paths i)
    in
    if path_alive m p then p else walk_minimal m rng ~src ~dst
  end
  else deterministic_min_path m ~src ~dst

let wlb_waypoint_weights m ~src ~dst =
  let key = (src * Topology.vertex_count m.topo) + dst in
  match Hashtbl.find_opt m.wlb_dist key with
  | Some w -> w
  | None ->
      let t = m.topo in
      let h = Topology.host_count t in
      let base = Topology.distance t src dst in
      if base = max_int then invalid_arg "Routing: destination unreachable";
      let weights =
        Array.init h (fun w ->
            let dsw = Topology.distance t src w and dwd = Topology.distance t w dst in
            if dsw = max_int || dwd = max_int then 0.0
            else begin
              let base_w = Routing.wlb_beta ** float_of_int (dsw + dwd - base) in
              if node_shadowed m w then base_w *. Routing.quarantine_weight else base_w
            end)
      in
      let prefix = Array.make h 0.0 in
      let acc = ref 0.0 in
      for i = 0 to h - 1 do
        acc := !acc +. weights.(i);
        prefix.(i) <- !acc
      done;
      Hashtbl.replace m.wlb_dist key prefix;
      prefix

let sample_prefix rng prefix =
  let total = prefix.(Array.length prefix - 1) in
  let x = Util.Rng.float rng total in
  let lo = ref 0 and hi = ref (Array.length prefix - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if prefix.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

let concat_phases p1 p2 = Array.append p1 (Array.sub p2 1 (Array.length p2 - 1))

(* Verbatim, call shape included: the arguments evaluate right to left, so
   the second phase draws first. *)
let two_phase m rng ~src ~dst w =
  if w = src then walk_minimal m rng ~src ~dst
  else if w = dst then walk_minimal m rng ~src ~dst
  else concat_phases (walk_minimal m rng ~src ~dst:w) (walk_minimal m rng ~src:w ~dst)

let sample_path m rng p ~src ~dst =
  if src = dst then invalid_arg "Routing.sample_path: src = dst";
  match p with
  | Routing.Rps -> walk_minimal m rng ~src ~dst
  | Routing.Dor -> dor_path m rng ~src ~dst
  | Routing.Vlb ->
      let t = m.topo in
      let h = Topology.host_count t in
      let rec draw tries =
        if tries = 0 then src
        else begin
          let w = Util.Rng.int rng h in
          if w = src || w = dst then w
          else if Topology.reachable t src w && Topology.reachable t w dst then
            if
              node_shadowed m w
              && tries > 1
              && Util.Rng.float rng 1.0 >= Routing.quarantine_weight
            then draw (tries - 1)
            else w
          else draw (tries - 1)
        end
      in
      two_phase m rng ~src ~dst (draw 32)
  | Routing.Wlb ->
      let prefix = wlb_waypoint_weights m ~src ~dst in
      let w = sample_prefix rng prefix in
      let marginal = if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1) in
      two_phase m rng ~src ~dst (if marginal > 0.0 then w else src)

let ecmp_path m ~flow_id ~src ~dst =
  let rng = Util.Rng.create ((flow_id * 1000003) lxor (src * 8191) lxor dst) in
  walk_minimal m rng ~src ~dst

(* -- link fractions --------------------------------------------------------- *)

let min_fractions_uncached m ~src ~dst =
  let t = m.topo in
  let d = Topology.dist_to t dst in
  if d.(src) = max_int then invalid_arg "Routing: destination unreachable";
  let layers = Array.make (d.(src) + 1) [] in
  layers.(d.(src)) <- [ src ];
  let prob = Hashtbl.create 32 in
  Hashtbl.replace prob src 1.0;
  let frac = Hashtbl.create 32 in
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
        let hops = productive_hops m u ~dst in
        if not (demoted m) then begin
          let share = p /. float_of_int (Array.length hops) in
          Array.iter (fun (v, l) -> deposit v l share) hops
        end
        else begin
          let wtot = Array.fold_left (fun acc (_, l) -> acc +. link_weight m l) 0.0 hops in
          Array.iter (fun (v, l) -> deposit v l (p *. link_weight m l /. wtot)) hops
        end)
      layers.(layer)
  done;
  sorted_bindings frac

let min_fractions m ~src ~dst =
  let key = (src * Topology.vertex_count m.topo) + dst in
  match Hashtbl.find_opt m.dp key with
  | Some row -> row
  | None ->
      let row = min_fractions_uncached m ~src ~dst in
      Hashtbl.replace m.dp key row;
      row

let dor_fractions m ~src ~dst =
  let acc = Hashtbl.create 16 in
  let add l p =
    let cur = Option.value ~default:0.0 (Hashtbl.find_opt acc l) in
    Hashtbl.replace acc l (cur +. p)
  in
  let dead = ref 0.0 in
  let paths =
    if gridded m then dor_torus_paths m ~src ~dst
    else [ (deterministic_min_path m ~src ~dst, 1.0) ]
  in
  List.iter
    (fun (path, p) ->
      if path_alive m path then Array.iter (fun l -> add l p) (path_links m path)
      else dead := !dead +. p)
    paths;
  if !dead > 0.0 then Array.iter (fun (l, f) -> add l (!dead *. f)) (min_fractions m ~src ~dst);
  sorted_bindings acc

let accumulate_dense dense scale sparse =
  Array.iter (fun (l, f) -> dense.(l) <- dense.(l) +. (scale *. f)) sparse

let vlb_sum m table v ~outbound =
  match Hashtbl.find_opt table v with
  | Some a -> a
  | None ->
      let t = m.topo in
      let dense = Array.make (Topology.link_count t) 0.0 in
      for w = 0 to Topology.host_count t - 1 do
        if outbound then begin
          if w <> v && Topology.reachable t v w then
            accumulate_dense dense 1.0 (min_fractions m ~src:v ~dst:w)
        end
        else if w <> v && Topology.reachable t w v then
          accumulate_dense dense 1.0 (min_fractions m ~src:w ~dst:v)
      done;
      Hashtbl.replace table v dense;
      dense

let sparse_of_dense dense =
  let acc = ref [] in
  for l = Array.length dense - 1 downto 0 do
    if dense.(l) > 1e-12 then acc := (l, dense.(l)) :: !acc
  done;
  Array.of_list !acc

let vlb_fractions m ~src ~dst =
  let t = m.topo in
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
  let a = vlb_sum m m.vlb_a src ~outbound:true and b = vlb_sum m m.vlb_b dst ~outbound:false in
  let dense = Array.make (Array.length a) 0.0 in
  Array.iteri (fun l x -> dense.(l) <- (x +. b.(l)) /. h) a;
  sparse_of_dense dense

let wlb_fractions m ~src ~dst =
  let t = m.topo in
  let h = Topology.host_count t in
  let prefix = wlb_waypoint_weights m ~src ~dst in
  let total = prefix.(h - 1) in
  let dense = Array.make (Topology.link_count t) 0.0 in
  for w = 0 to h - 1 do
    let weight = (if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1)) /. total in
    if weight > 0.0 then begin
      if w <> src && w <> dst then begin
        accumulate_dense dense weight (min_fractions m ~src ~dst:w);
        accumulate_dense dense weight (min_fractions m ~src:w ~dst)
      end
      else accumulate_dense dense weight (min_fractions m ~src ~dst)
    end
  done;
  sparse_of_dense dense

let fractions m p ~src ~dst =
  if src = dst then invalid_arg "Routing.fractions: src = dst";
  match p with
  | Routing.Rps -> min_fractions m ~src ~dst
  | Routing.Dor -> dor_fractions m ~src ~dst
  | Routing.Vlb -> vlb_fractions m ~src ~dst
  | Routing.Wlb -> wlb_fractions m ~src ~dst
