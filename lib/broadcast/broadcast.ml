(* A tree is cached as its FIB alone ({!Topology.tree}): the children of
   [v] are reached over the link ids in [v]'s slot, so replicating a
   packet is a loop over a slice of 32-bit entries — no list, closure or
   link lookup per hop. Everything else a tree answers (parents, hops,
   depth, edges, validity) is derived from the FIB on demand, off the
   packet path. *)
type fib = Topology.tree

type cached = {
  fib : fib;
  mutable version : int;  (* Topology.version the tree was last validated against *)
}

type t = {
  topo : Topology.t;
  trees_per_source : int;
  cache : cached option array;  (* index = src * trees_per_source + tree id *)
  mutable repairs : int;
  mutable repair_bytes : int;
}

let make ?(trees_per_source = Topology.trees_per_source) topo =
  if trees_per_source < 1 then invalid_arg "Broadcast.make: trees_per_source < 1";
  {
    topo;
    trees_per_source;
    cache = Array.make (Topology.vertex_count topo * trees_per_source) None;
    repairs = 0;
    repair_bytes = 0;
  }

let trees_per_source t = t.trees_per_source
let repairs t = t.repairs
let repair_bytes t = t.repair_bytes

(* The FIB's edge count: its link entries run from [n + 1] to the end of
   the last vertex's slot. *)
let edge_count topo fib =
  let n = Topology.vertex_count topo in
  Topology.tree_entry fib n - (n + 1)

(* A tree is valid when every alive vertex reachable from the source is
   covered by an alive tree edge. Checking edges locally suffices: a broken
   chain higher up surfaces as a dead (or missing) edge at the first alive,
   reachable vertex below the break. Each vertex is the far end of at most
   one FIB link, so counting the alive links into reachable vertices
   against the reachable vertices themselves decides it. *)
let check_tree topo ~src fib =
  Topology.node_alive topo src
  && begin
    let d = Topology.dist_to topo src in
    let n = Topology.vertex_count topo in
    let needed = ref 0 and covered = ref 0 in
    for v = 0 to n - 1 do
      if v <> src && Topology.node_alive topo v && d.(v) < max_int then incr needed
    done;
    for i = n + 1 to Topology.tree_entry fib n - 1 do
      let l = Topology.tree_entry fib i in
      if Topology.link_alive topo l && d.(Topology.link_dst topo l) < max_int then incr covered
    done;
    !covered = !needed
  end

let build_tree t ~src ~tree =
  {
    fib = Topology.shortest_path_tree t.topo ~root:src ~variant:tree;
    version = Topology.version t.topo;
  }

let slot t ~src ~tree =
  if src < 0 || src >= Topology.vertex_count t.topo then invalid_arg "Broadcast: src out of range";
  if tree < 0 || tree >= t.trees_per_source then invalid_arg "Broadcast: tree id out of range";
  (src * t.trees_per_source) + tree

let get_tree t ~src ~tree =
  let key = slot t ~src ~tree in
  let v = Topology.version t.topo in
  match t.cache.(key) with
  | Some tr when tr.version = v -> tr
  | Some tr when check_tree t.topo ~src tr.fib ->
      (* Survived the failure untouched; just re-stamp. *)
      tr.version <- v;
      tr
  | Some _ ->
      (* Crosses a dead element: rebuild on the surviving graph and charge
         the FIB re-announcement (one broadcast-sized update per edge). *)
      let tr = build_tree t ~src ~tree in
      t.repairs <- t.repairs + 1;
      t.repair_bytes <- t.repair_bytes + (Wire.broadcast_size * edge_count t.topo tr.fib);
      t.cache.(key) <- Some tr;
      tr
  | None ->
      let tr = build_tree t ~src ~tree in
      t.cache.(key) <- Some tr;
      tr

let tree_valid t ~src ~tree =
  match t.cache.(slot t ~src ~tree) with
  | Some tr -> tr.version = Topology.version t.topo || check_tree t.topo ~src tr.fib
  | None -> Topology.node_alive t.topo src

let repair_all t =
  let before = t.repairs in
  Array.iteri
    (fun key cached ->
      if Option.is_some cached then
        ignore
          (get_tree t ~src:(key / t.trees_per_source) ~tree:(key mod t.trees_per_source)))
    t.cache;
  t.repairs - before

let choose_tree t rng ~src:_ = Util.Rng.int rng t.trees_per_source

let fib t ~src ~tree = (get_tree t ~src ~tree).fib

let children t ~src ~tree v =
  let fib = fib t ~src ~tree in
  let lo = Topology.tree_entry fib v in
  List.init
    (Topology.tree_entry fib (v + 1) - lo)
    (fun i -> Topology.link_dst t.topo (Topology.tree_entry fib (lo + i)))

(* The parent array: the near end of each FIB link, written at its far
   end; the source is its own parent while it is alive. *)
let parents t ~src ~tree =
  let fib = fib t ~src ~tree in
  let n = Topology.vertex_count t.topo in
  let parent = Array.make n (-1) in
  if Topology.node_alive t.topo src then parent.(src) <- src;
  for i = n + 1 to Topology.tree_entry fib n - 1 do
    let l = Topology.tree_entry fib i in
    parent.(Topology.link_dst t.topo l) <- Topology.link_src t.topo l
  done;
  parent

let parent t ~src ~tree v = (parents t ~src ~tree).(v)

let delivery_hops t ~src ~tree =
  let fib = fib t ~src ~tree in
  let hops = Array.make (Topology.vertex_count t.topo) (-1) in
  let rec down v h =
    hops.(v) <- h;
    for i = Topology.tree_entry fib v to Topology.tree_entry fib (v + 1) - 1 do
      down (Topology.link_dst t.topo (Topology.tree_entry fib i)) (h + 1)
    done
  in
  down src 0;
  hops

let depth t ~src ~tree = Array.fold_left max 0 (delivery_hops t ~src ~tree)

let edges t ~src ~tree =
  let parent = parents t ~src ~tree in
  let acc = ref [] in
  Array.iteri (fun v p -> if v <> src && p >= 0 then acc := (p, v) :: !acc) parent;
  List.rev !acc

(* -- overhead model ------------------------------------------------------ *)

let bytes_per_broadcast topo = Wire.broadcast_size * (Topology.vertex_count topo - 1)

let relative_flow_overhead topo ~flow_bytes =
  let bcast = 2 * bytes_per_broadcast topo in
  let wire = float_of_int flow_bytes *. Topology.average_distance topo in
  float_of_int bcast /. wire

let analytic_overhead topo ~frac_small_bytes ~small_size ~large_size =
  if frac_small_bytes < 0.0 || frac_small_bytes > 1.0 then
    invalid_arg "Broadcast.analytic_overhead: fraction out of range";
  let per_flow = float_of_int (2 * bytes_per_broadcast topo) in
  let hops = Topology.average_distance topo in
  (* Per unit of payload bytes: flows/byte in each class times broadcast
     bytes per flow, against payload-bytes * average path length of wire
     traffic. *)
  let bcast_wire =
    (frac_small_bytes /. float_of_int small_size *. per_flow)
    +. ((1.0 -. frac_small_bytes) /. float_of_int large_size *. per_flow)
  in
  let data_wire = hops in
  bcast_wire /. (bcast_wire +. data_wire)
