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

(* A link-fraction row (§3.3): two unboxed arrays, so the GC has no
   pointer to scan in it. Built and validated once for its holder, then
   shared by reference and never written. *)
type row = { links : int array; fracs : Util.Units.fraction array; bound : int }

let make_row links (fracs : float array) =
  let bound = ref 0 in
  for j = 0 to Array.length links - 1 do
    let l = links.(j) in
    if l < 0 then invalid_arg "Routing.row: negative link id";
    if not (fracs.(j) > 0.0) then invalid_arg "Routing.row: non-positive fraction";
    if l >= !bound then bound := l + 1
  done;
  { links; fracs = Util.Units.of_floats fracs; bound = !bound }

let row ~links ~fracs =
  if Array.length links <> Array.length fracs then invalid_arg "Routing.row: length mismatch";
  make_row (Array.copy links) (Array.copy (Util.Units.floats_of fracs))

(* The context caches what rows are built from, never rows: a row lives
   as long as the flow or search that holds it, and a long-lived context
   stays bounded by the rack rather than by the pairs it has seen.
   Distances per destination live in [Topology]; VLB's per-endpoint sums
   and WLB's per-pair waypoint weights, which the per-packet sampler reads
   too, live here. *)
type ctx = {
  topo : Topology.t;
  vlb_a : float array Util.Itbl.t;  (* per source: sum over waypoints of minimal fractions *)
  vlb_b : float array Util.Itbl.t;  (* per destination *)
  wlb_dist : float array Util.Itbl.t;  (* per (src,dst): waypoint prefix weights *)
  mutable cache_version : int;  (* combined stamp the caches were built against *)
  quar : health Util.Itbl.t;  (* per directed link; absent = Healthy *)
  mutable demoted : int;  (* directed links currently not Healthy *)
  mutable quar_version : int;  (* bumped on every health transition *)
  mutable scratch : scratch option;  (* allocated on first use *)
}

(* Working memory of the fraction DP and the path walker (DESIGN.md §11):
   flat arrays sized by the topology, so neither kernel allocates beyond
   its output. Nothing here outlives one call; the stamps mark which
   entries the current call wrote, so nothing is cleared between calls. *)
and scratch = {
  mass : float array;  (* per vertex: DP probability mass reaching it *)
  seen : int array;  (* per vertex: [dp_stamp] of the DP that reached it *)
  queue : int array;  (* DAG vertices, layer by layer, in discovery order *)
  mutable qtail : int;
  dag_bits : int array;  (* DAG vertices as a bitmap, 32 per word; empty between calls *)
  mutable dp_stamp : int;
  share : float array;  (* per link: mass the last DP put on it *)
  touched : int array;  (* links the last DP deposited on, in deposit order *)
  mutable ntouched : int;
  acc : float array;  (* per link: a row composed from several parts *)
  acc_seen : int array;  (* per link: [acc_stamp] of the row it belongs to *)
  mutable acc_stamp : int;
  path : int array;  (* the last sampled vertex path *)
  ports : int array;  (* productive ports of one vertex *)
  weights : float array;  (* demoted walk: their link weights *)
}

let make topo =
  {
    topo;
    vlb_a = Util.Itbl.create 64;
    vlb_b = Util.Itbl.create 64;
    wlb_dist = Util.Itbl.create 256;
    cache_version = Topology.version topo;
    quar = Util.Itbl.create 16;
    demoted = 0;
    quar_version = 0;
    scratch = None;
  }

let scratch ctx =
  match ctx.scratch with
  | Some sc -> sc
  | None ->
      let t = ctx.topo in
      let n = Topology.vertex_count t and m = Topology.link_count t in
      let deg = ref 0 in
      for u = 0 to n - 1 do
        deg := max !deg (Topology.degree t u)
      done;
      let sc =
        {
          mass = Array.make n 0.0;
          seen = Array.make n 0;
          queue = Array.make n 0;
          qtail = 0;
          dag_bits = Array.make ((n + 31) / 32) 0;
          dp_stamp = 0;
          share = Array.make m 0.0;
          touched = Array.make m 0;
          ntouched = 0;
          acc = Array.make m 0.0;
          acc_seen = Array.make m 0;
          acc_stamp = 0;
          (* A two-phase path visits at most 2n - 1 vertices. *)
          path = Array.make (2 * n) 0;
          ports = Array.make !deg 0;
          weights = Array.make !deg 0.0;
        }
      in
      ctx.scratch <- Some sc;
      sc

(* Every cached structure bakes in the down-state and link-health it was
   computed under; flush wholesale when either version moved. Both counters
   only grow, so their sum is a monotone combined stamp. *)
let sync ctx =
  let v = Topology.version ctx.topo + ctx.quar_version in
  if v <> ctx.cache_version then begin
    Util.Itbl.reset ctx.vlb_a;
    Util.Itbl.reset ctx.vlb_b;
    Util.Itbl.reset ctx.wlb_dist;
    ctx.cache_version <- v
  end

let topo ctx = ctx.topo

(* -- link-health state machine ------------------------------------------ *)

let link_weight ctx l =
  match Util.Itbl.find_opt ctx.quar l with None -> 1.0 | Some h -> hweight h

let set_health ctx u v h =
  let a, b = Topology.cable_ids ctx.topo u v in
  let set l =
    let cur =
      match Util.Itbl.find_opt ctx.quar l with None -> Healthy | Some x -> x
    in
    if hrank cur <> hrank h then begin
      (match h with
      | Healthy ->
          Util.Itbl.remove ctx.quar l;
          ctx.demoted <- ctx.demoted - 1
      | Probation | Quarantined ->
          if hrank cur = 0 then ctx.demoted <- ctx.demoted + 1;
          Util.Itbl.replace ctx.quar l h);
      ctx.quar_version <- ctx.quar_version + 1
    end
  in
  set a;
  set b

let note_suspect ctx u v = set_health ctx u v Quarantined
let note_probation ctx u v = set_health ctx u v Probation
let note_recovered ctx u v = set_health ctx u v Healthy

let link_health ctx u v =
  let a, _ = Topology.cable_ids ctx.topo u v in
  match Util.Itbl.find_opt ctx.quar a with None -> Healthy | Some h -> h

let demoted_links ctx = ctx.demoted

(* A waypoint sitting behind a quarantined cable is demoted from VLB/WLB
   waypoint choice with the same weight the cable itself gets. Checked
   only when something is demoted, so clean runs pay nothing. *)
let node_shadowed ctx w =
  ctx.demoted > 0
  && Array.exists
       (fun (_, l) ->
         match Util.Itbl.find_opt ctx.quar l with
         | Some Quarantined -> true
         | Some (Healthy | Probation) | None -> false)
       (Topology.out_links ctx.topo w)

(* -- path sampling ------------------------------------------------------ *)

(* The one path walker. Writes a minimal [src] -> [dst] phase into the
   scratch path buffer, [src] at position [pos], and returns the position
   of [dst]. At every vertex it sprays uniformly over the productive hops
   — [Rng.int n] and then the k-th hop, the very draw [Rng.pick] makes
   over the [productive_hops] array — or, when any link is demoted,
   draws by link weight in [Rng.categorical]'s order: the same sum, the
   same single float draw, the same cumulative scan. [lowest] takes the
   lowest-id productive hop instead and draws nothing (DOR on graphs
   without coordinates). The [demoted = 0] branch is the exact legacy
   draw, so runs without quarantine consume the identical RNG stream. *)
let walk_into ctx sc rng ~lowest ~pos ~src ~dst =
  let t = ctx.topo in
  let { Topology.first; ldst } = Topology.flat t in
  let row = Topology.mask_row t ~dst in
  let path = sc.path and ports = sc.ports in
  let pos = ref pos and u = ref src in
  path.(!pos) <- src;
  while !u <> dst do
    let n = Topology.productive_ports t ~row !u ports in
    if n = 0 then invalid_arg "Routing: destination unreachable";
    let base = first.(!u) in
    let k =
      if lowest then begin
        let best = ref 0 in
        for k = 1 to n - 1 do
          if ldst.(base + ports.(k)) < ldst.(base + ports.(!best)) then best := k
        done;
        !best
      end
      else if ctx.demoted = 0 then Util.Rng.int rng n
      else begin
        let total = ref 0.0 in
        for k = 0 to n - 1 do
          sc.weights.(k) <- link_weight ctx (base + ports.(k));
          total := !total +. sc.weights.(k)
        done;
        assert (!total > 0.0);
        let x = Util.Rng.float rng !total in
        let k = ref 0 and acc = ref 0.0 and found = ref false in
        while not !found do
          if !k = n - 1 then found := true
          else begin
            acc := !acc +. sc.weights.(!k);
            if x < !acc then found := true else incr k
          end
        done;
        !k
      end
    in
    u := ldst.(base + ports.(k));
    incr pos;
    path.(!pos) <- !u
  done;
  !pos

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

(* A fresh copy of one walked minimal phase. *)
let walk_copy ctx sc rng ~lowest ~src ~dst =
  Array.sub sc.path 0 (walk_into ctx sc rng ~lowest ~pos:0 ~src ~dst + 1)

(* Fallback single shortest path for non-grid topologies: lowest-id
   productive hop at every step. The lowest-id walk never draws, so its
   generator is a throwaway. *)
let deterministic_min_path ctx sc ~src ~dst =
  walk_copy ctx sc (Util.Rng.create 0) ~lowest:true ~src ~dst

let dor_into ctx sc rng ~src ~dst =
  match Topology.kind ctx.topo with
  | Topology.Torus _ | Topology.Mesh _ ->
      let p = dor_torus_path ctx rng ~src ~dst in
      (* Dimension-order paths ignore down-state; detour on the surviving
         shortest-path DAG when the coordinate path crosses a dead link. *)
      if path_alive ctx p then begin
        Array.blit p 0 sc.path 0 (Array.length p);
        Array.length p - 1
      end
      else walk_into ctx sc rng ~lowest:false ~pos:0 ~src ~dst
  | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ ->
      walk_into ctx sc rng ~lowest:true ~pos:0 ~src ~dst

let dor_paths_weighted ctx sc ~src ~dst =
  match Topology.kind ctx.topo with
  | Topology.Torus _ | Topology.Mesh _ -> dor_torus_paths ctx ~src ~dst
  | Topology.Clos _ | Topology.Flattened_butterfly _ | Topology.Custom _ ->
      [ (deterministic_min_path ctx sc ~src ~dst, 1.0) ]

let wlb_waypoint_weights ctx ~src ~dst =
  let key = (src * Topology.vertex_count ctx.topo) + dst in
  match Util.Itbl.find_opt ctx.wlb_dist key with
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
      Util.Itbl.replace ctx.wlb_dist key prefix;
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

(* Both phases through waypoint [w], written in place; a waypoint equal to
   an endpoint degenerates to one minimal phase. The second phase draws
   first: that is the order the RNG stream, and with it every pinned
   digest, was fixed in. A minimal phase is exactly d(src, w) hops, which
   is where the second one starts. *)
let two_phase_into ctx sc rng ~src ~dst w =
  if w = src || w = dst then walk_into ctx sc rng ~lowest:false ~pos:0 ~src ~dst
  else begin
    let mid = Topology.distance ctx.topo src w in
    if mid = max_int then invalid_arg "Routing: destination unreachable";
    let last = walk_into ctx sc rng ~lowest:false ~pos:mid ~src:w ~dst in
    ignore (walk_into ctx sc rng ~lowest:false ~pos:0 ~src ~dst:w : int);
    last
  end

let sample_into ctx rng p ~src ~dst =
  if src = dst then invalid_arg "Routing.sample_path: src = dst";
  sync ctx;
  let sc = scratch ctx in
  let last =
    match p with
    | Rps -> walk_into ctx sc rng ~lowest:false ~pos:0 ~src ~dst
    | Dor -> dor_into ctx sc rng ~src ~dst
    | Vlb ->
        let t = ctx.topo in
        let h = Topology.host_count t in
        (* Resample until the waypoint is alive and connects both phases;
           degenerate to a single minimal phase if none is found quickly.
           A quarantine-shadowed waypoint is kept only with its demoted
           weight (never outright rejected forever: the last try accepts),
           so suspect regions still see a probing trickle. *)
        let w = ref (-1) and tries = ref 32 in
        while !w < 0 do
          if !tries = 0 then w := src
          else begin
            let c = Util.Rng.int rng h in
            if c = src || c = dst then w := c
            else if Topology.reachable t src c && Topology.reachable t c dst then begin
              let rejected =
                node_shadowed ctx c && !tries > 1 && not (Util.Rng.below rng quarantine_weight)
              in
              if not rejected then w := c
            end;
            decr tries
          end
        done;
        two_phase_into ctx sc rng ~src ~dst !w
    | Wlb ->
        let prefix = wlb_waypoint_weights ctx ~src ~dst in
        let w = sample_prefix rng prefix in
        let marginal = if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1) in
        (* A zero-weight (dead) waypoint can only surface on an exact
           prefix-sum tie; degrade to the single minimal phase. *)
        let w = if marginal > 0.0 then w else src in
        two_phase_into ctx sc rng ~src ~dst w
  in
  last + 1

let path_buffer ctx = (scratch ctx).path

let sample_path ctx rng p ~src ~dst =
  let n = sample_into ctx rng p ~src ~dst in
  Array.sub (path_buffer ctx) 0 n

let ecmp_path ctx ~flow_id ~src ~dst =
  sync ctx;
  let seed = (flow_id * 1000003) lxor (src * 8191) lxor dst in
  walk_copy ctx (scratch ctx) (Util.Rng.create seed) ~lowest:false ~src ~dst

let path_links ctx path =
  Array.init
    (Array.length path - 1)
    (fun i ->
      let l = Topology.find_link_id ctx.topo path.(i) path.(i + 1) in
      if l < 0 then invalid_arg "Routing.path_links: non-adjacent vertices";
      l)

let sample_paths_distinct ctx rng ~k ~src ~dst =
  sync ctx;
  let sc = scratch ctx in
  let seen = Hashtbl.create 16 in
  let paths = ref [] in
  let tries = ref 0 in
  while Hashtbl.length seen < k && !tries < 8 * k do
    incr tries;
    let p = walk_copy ctx sc rng ~lowest:false ~src ~dst in
    let key = String.concat "," (Array.to_list (Array.map string_of_int p)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      paths := p :: !paths
    end
  done;
  List.rev !paths

(* -- link fractions ----------------------------------------------------- *)

(* Mass [share] crosses link [l] into [v]. Every link is deposited on
   once per DP (its source is expanded once), so the link's share is
   [0.0 +. share], the old table's first insert; a vertex sums its
   in-links in deposit order and joins the queue on its first. *)
let[@inline] deposit sc v l share =
  sc.share.(l) <- 0.0 +. share;
  sc.touched.(sc.ntouched) <- l;
  sc.ntouched <- sc.ntouched + 1;
  if sc.seen.(v) = sc.dp_stamp then sc.mass.(v) <- sc.mass.(v) +. share
  else begin
    sc.seen.(v) <- sc.dp_stamp;
    sc.mass.(v) <- share;
    sc.queue.(sc.qtail) <- v;
    sc.qtail <- sc.qtail + 1
  end

let min_dp ctx sc ~src ~dst =
  (* DP over the shortest-path DAG: probability mass splits uniformly over
     productive hops at every vertex (by link weight when any link is
     demoted). Leaves each link's share in [sc.share], for the links
     [sc.touched.(0 .. ntouched-1)]. The queue holds one layer after
     another in discovery order; walking each layer backwards expands
     the vertices in exactly the order the old prepend-built layer lists
     did, so every float sum runs in the same order. *)
  let t = ctx.topo in
  let d = Topology.dist_to t dst in
  if d.(src) = max_int then invalid_arg "Routing: destination unreachable";
  let { Topology.first; ldst } = Topology.flat t in
  let row = Topology.mask_row t ~dst in
  let ports = sc.ports in
  sc.dp_stamp <- sc.dp_stamp + 1;
  sc.ntouched <- 0;
  sc.seen.(src) <- sc.dp_stamp;
  sc.mass.(src) <- 1.0;
  sc.queue.(0) <- src;
  sc.qtail <- 1;
  let lo = ref 0 in
  for _ = d.(src) downto 1 do
    let hi = sc.qtail in
    for j = hi - 1 downto !lo do
      let u = sc.queue.(j) in
      let p = sc.mass.(u) in
      let n = Topology.productive_ports t ~row u ports in
      let base = first.(u) in
      if ctx.demoted = 0 then begin
        (* Uniform split — the exact legacy arithmetic. *)
        let share = p /. float_of_int n in
        for k = 0 to n - 1 do
          let l = base + ports.(k) in
          deposit sc ldst.(l) l share
        done
      end
      else begin
        let wtot = ref 0.0 in
        for k = 0 to n - 1 do
          wtot := !wtot +. link_weight ctx (base + ports.(k))
        done;
        for k = 0 to n - 1 do
          let l = base + ports.(k) in
          deposit sc ldst.(l) l (p *. link_weight ctx l /. !wtot)
        done
      end
    done;
    lo := hi
  done

(* The last DP's row, sorted by link id without a sort: links are numbered
   source-major ({!Topology.link_count}), so visiting the DAG's vertices
   by id, and each one's masked ports in order, lists them ascending.
   The DP deposited on exactly those links: every DAG vertex but [dst]
   was expanded over its masked ports, and [dst]'s mask is empty. The
   DAG's vertices are the DP's queue, put in id order through a bitmap
   that is emptied as it is read. Allocates the row only. *)
let min_fractions ctx sc ~src ~dst =
  min_dp ctx sc ~src ~dst;
  let t = ctx.topo and bits = sc.dag_bits and ports = sc.ports in
  let first = (Topology.flat t).first in
  let row = Topology.mask_row t ~dst in
  for j = 0 to sc.qtail - 1 do
    let u = sc.queue.(j) in
    bits.(u lsr 5) <- bits.(u lsr 5) lor (1 lsl (u land 31))
  done;
  let links = Array.make sc.ntouched 0 and fracs = Array.create_float sc.ntouched in
  let k = ref 0 in
  for w = 0 to Array.length bits - 1 do
    let word = ref bits.(w) and u = ref (w lsl 5) in
    bits.(w) <- 0;
    while !word <> 0 do
      if !word land 1 <> 0 then begin
        let base = first.(!u) in
        for i = 0 to Topology.productive_ports t ~row !u ports - 1 do
          let l = base + ports.(i) in
          links.(!k) <- l;
          fracs.(!k) <- sc.share.(l);
          incr k
        done
      end;
      word := !word lsr 1;
      incr u
    done
  done;
  make_row links fracs

(* A row composed from several parts (DOR's paths plus its detour, WLB's
   waypoint phases) accumulates per link in [sc.acc], each link starting
   from [0.0 +.] its first part. *)
let acc_reset sc = sc.acc_stamp <- sc.acc_stamp + 1

let[@inline] acc_add sc l x =
  if sc.acc_seen.(l) = sc.acc_stamp then sc.acc.(l) <- sc.acc.(l) +. x
  else begin
    sc.acc_seen.(l) <- sc.acc_stamp;
    sc.acc.(l) <- 0.0 +. x
  end

(* Adds [scale] times the last DP's shares to the accumulator. *)
let[@inline] acc_add_dp sc scale =
  for i = 0 to sc.ntouched - 1 do
    let l = sc.touched.(i) in
    acc_add sc l (scale *. sc.share.(l))
  done

(* The accumulated row in link order, keeping entries above [above].
   Allocates the row only. *)
let acc_row sc ~above =
  let m = Array.length sc.acc in
  let kept l = sc.acc_seen.(l) = sc.acc_stamp && sc.acc.(l) > above in
  let k = ref 0 in
  for l = 0 to m - 1 do
    if kept l then incr k
  done;
  let links = Array.make !k 0 and fracs = Array.create_float !k in
  let k = ref 0 in
  for l = 0 to m - 1 do
    if kept l then begin
      links.(!k) <- l;
      fracs.(!k) <- sc.acc.(l);
      incr k
    end
  done;
  make_row links fracs

let dor_fractions ctx sc ~src ~dst =
  acc_reset sc;
  (* Probability mass of coordinate paths crossing a dead link detours over
     the surviving shortest-path DAG, mirroring the data plane's fallback. *)
  let dead = ref 0.0 in
  List.iter
    (fun (path, p) ->
      if path_alive ctx path then Array.iter (fun l -> acc_add sc l p) (path_links ctx path)
      else dead := !dead +. p)
    (dor_paths_weighted ctx sc ~src ~dst);
  if !dead > 0.0 then begin
    min_dp ctx sc ~src ~dst;
    acc_add_dp sc !dead
  end;
  acc_row sc ~above:neg_infinity

(* VLB's per-endpoint sums over every waypoint's minimal fractions: phase
   1 out of [v] when [outbound], phase 2 into [v] otherwise. *)
let vlb_sum ctx sc table v ~outbound =
  match Util.Itbl.find_opt table v with
  | Some a -> a
  | None ->
      let t = ctx.topo in
      let dense = Array.make (Topology.link_count t) 0.0 in
      for w = 0 to Topology.host_count t - 1 do
        let src = if outbound then v else w and dst = if outbound then w else v in
        if w <> v && Topology.reachable t src dst then begin
          min_dp ctx sc ~src ~dst;
          for i = 0 to sc.ntouched - 1 do
            let l = sc.touched.(i) in
            dense.(l) <- dense.(l) +. (1.0 *. sc.share.(l))
          done
        end
      done;
      Util.Itbl.replace table v dense;
      dense

let vlb_fractions ctx sc ~src ~dst =
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
  let a = vlb_sum ctx sc ctx.vlb_a src ~outbound:true in
  let b = vlb_sum ctx sc ctx.vlb_b dst ~outbound:false in
  (* Each link's first part is [0.0 +.] a non-negative sum: the sum itself. *)
  acc_reset sc;
  for l = 0 to Array.length a - 1 do
    acc_add sc l ((a.(l) +. b.(l)) /. h)
  done;
  acc_row sc ~above:1e-12

let wlb_fractions ctx sc ~src ~dst =
  let t = ctx.topo in
  let h = Topology.host_count t in
  let prefix = wlb_waypoint_weights ctx ~src ~dst in
  let total = prefix.(h - 1) in
  acc_reset sc;
  for w = 0 to h - 1 do
    let weight = (if w = 0 then prefix.(0) else prefix.(w) -. prefix.(w - 1)) /. total in
    if weight > 0.0 then begin
      if w <> src && w <> dst then begin
        min_dp ctx sc ~src ~dst:w;
        acc_add_dp sc weight;
        min_dp ctx sc ~src:w ~dst;
        acc_add_dp sc weight
      end
      else begin
        min_dp ctx sc ~src ~dst;
        acc_add_dp sc weight
      end
    end
  done;
  acc_row sc ~above:1e-12

let fractions ctx p ~src ~dst =
  if src = dst then invalid_arg "Routing.fractions: src = dst";
  sync ctx;
  let sc = scratch ctx in
  match p with
  | Rps -> min_fractions ctx sc ~src ~dst
  | Dor -> dor_fractions ctx sc ~src ~dst
  | Vlb -> vlb_fractions ctx sc ~src ~dst
  | Wlb -> wlb_fractions ctx sc ~src ~dst
