(* A tree's broadcast FIB in CSR form: the children of [v] are reached over
   the link ids [links.(first.(v)) .. links.(first.(v + 1) - 1)], in
   ascending child order. Replicating a packet is then a loop over an int
   slice — no list, closure or link lookup per hop. *)
type fib = {
  first : int array;
  links : int array;
}

type tree = {
  parent : int array;
  fib : fib;
  depth : int;
  hops : int array;
  mutable version : int;  (* Topology.version the tree was last validated against *)
}

type t = {
  topo : Topology.t;
  trees_per_source : int;
  cache : tree option array;  (* index = src * trees_per_source + tree id *)
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

let tree_hops parent ~root =
  let n = Array.length parent in
  let hops = Array.make n (-1) in
  hops.(root) <- 0;
  let rec hop v = if hops.(v) >= 0 then hops.(v) else begin
      let h = hop parent.(v) + 1 in
      hops.(v) <- h;
      h
    end
  in
  for v = 0 to n - 1 do
    if parent.(v) >= 0 then ignore (hop v)
  done;
  hops

(* A tree is valid when every alive vertex reachable from the source is
   covered by an alive tree edge. Checking edges locally suffices: a broken
   chain higher up surfaces as a dead (or missing) edge at the first alive,
   reachable vertex below the break. *)
let check_tree t ~src parent =
  let topo = t.topo in
  if not (Topology.node_alive topo src) then false
  else begin
    let d = Topology.dist_to topo src in
    let ok = ref true in
    let n = Array.length parent in
    for v = 0 to n - 1 do
      if !ok && v <> src && Topology.node_alive topo v && d.(v) < max_int then begin
        let p = parent.(v) in
        if p < 0 then ok := false
        else begin
          let l = Topology.find_link_id topo p v in
          if l < 0 || not (Topology.link_alive topo l) then ok := false
        end
      end
    done;
    !ok
  end

(* Counting sort of the tree edges by parent. [first.(p)] first counts
   [p]'s children, then after the prefix sum marks the end of its slot;
   placing children in descending order while decrementing it leaves each
   slot ascending and [first.(p)] at the slot's start. *)
let build_fib topo parent ~root =
  let n = Array.length parent in
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    let p = parent.(v) in
    if v <> root && p >= 0 then first.(p) <- first.(p) + 1
  done;
  for v = 1 to n do
    first.(v) <- first.(v) + first.(v - 1)
  done;
  let links = Array.make first.(n) 0 in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if v <> root && p >= 0 then begin
      let l = Topology.find_link_id topo p v in
      if l < 0 then invalid_arg "Broadcast: tree edge is not a link";
      first.(p) <- first.(p) - 1;
      links.(first.(p)) <- l
    end
  done;
  { first; links }

let build_tree t ~src ~tree =
  let parent = Topology.shortest_path_tree t.topo ~root:src ~variant:tree in
  let fib = build_fib t.topo parent ~root:src in
  let hops = tree_hops parent ~root:src in
  { parent; fib; depth = Array.fold_left max 0 hops; hops; version = Topology.version t.topo }

let slot t ~src ~tree =
  if src < 0 || src >= Topology.vertex_count t.topo then invalid_arg "Broadcast: src out of range";
  if tree < 0 || tree >= t.trees_per_source then invalid_arg "Broadcast: tree id out of range";
  (src * t.trees_per_source) + tree

let get_tree t ~src ~tree =
  let key = slot t ~src ~tree in
  let v = Topology.version t.topo in
  match t.cache.(key) with
  | Some tr when tr.version = v -> tr
  | Some tr when check_tree t ~src tr.parent ->
      (* Survived the failure untouched; just re-stamp. *)
      tr.version <- v;
      tr
  | Some _ ->
      (* Crosses a dead element: rebuild on the surviving graph and charge
         the FIB re-announcement (one broadcast-sized update per edge). *)
      let tr = build_tree t ~src ~tree in
      t.repairs <- t.repairs + 1;
      t.repair_bytes <- t.repair_bytes + (Wire.broadcast_size * Array.length tr.fib.links);
      t.cache.(key) <- Some tr;
      tr
  | None ->
      let tr = build_tree t ~src ~tree in
      t.cache.(key) <- Some tr;
      tr

let tree_valid t ~src ~tree =
  match t.cache.(slot t ~src ~tree) with
  | Some tr -> tr.version = Topology.version t.topo || check_tree t ~src tr.parent
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
  let { first; links } = fib t ~src ~tree in
  List.init (first.(v + 1) - first.(v)) (fun i -> Topology.link_dst t.topo links.(first.(v) + i))

let parent t ~src ~tree v = (get_tree t ~src ~tree).parent.(v)
let depth t ~src ~tree = (get_tree t ~src ~tree).depth
let delivery_hops t ~src ~tree = (get_tree t ~src ~tree).hops

let edges t ~src ~tree =
  let tr = get_tree t ~src ~tree in
  let acc = ref [] in
  Array.iteri (fun v p -> if v <> src && p >= 0 then acc := (p, v) :: !acc) tr.parent;
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
