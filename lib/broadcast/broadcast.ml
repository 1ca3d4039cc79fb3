(* A tree is cached as its FIB alone ({!Topology.tree}): the children of
   [v] are reached over the links whose bits are set in [v]'s bytes, so
   replicating a packet is a walk over one byte of a torus vertex — no
   list, closure or link lookup per hop. Everything else a tree answers
   (parents, hops, depth, edges, validity) is derived from the FIB on
   demand, off the packet path. *)
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

(* [f] on every (forwarding vertex, link) of the FIB, vertices ascending. *)
let iter_edges topo fib f =
  for v = 0 to Topology.vertex_count topo - 1 do
    Topology.iter_tree_links topo fib v (f v)
  done

let edge_count topo fib =
  let count = ref 0 in
  iter_edges topo fib (fun _ _ -> incr count);
  !count

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
    iter_edges topo fib (fun _ l ->
        if Topology.link_alive topo l && d.(Topology.link_dst topo l) < max_int then incr covered);
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
  let acc = ref [] in
  Topology.iter_tree_links t.topo (fib t ~src ~tree) v (fun l ->
      acc := Topology.link_dst t.topo l :: !acc);
  List.rev !acc

(* The parent array: the forwarding vertex of each FIB link, written at
   its far end; the source is its own parent while it is alive. *)
let parents t ~src ~tree =
  let parent = Array.make (Topology.vertex_count t.topo) (-1) in
  if Topology.node_alive t.topo src then parent.(src) <- src;
  iter_edges t.topo (fib t ~src ~tree) (fun v l -> parent.(Topology.link_dst t.topo l) <- v);
  parent

let parent t ~src ~tree v = (parents t ~src ~tree).(v)

let delivery_hops t ~src ~tree =
  let fib = fib t ~src ~tree in
  let hops = Array.make (Topology.vertex_count t.topo) (-1) in
  let rec down v h =
    hops.(v) <- h;
    Topology.iter_tree_links t.topo fib v (fun l -> down (Topology.link_dst t.topo l) (h + 1))
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
