(* Reference model for Broadcast's tree cache: the queue-and-parent-array
   breadth-first search that Topology.shortest_path_tree used before it
   wrote compressed-sparse-row trees, and the cache that kept each tree as
   its parent array, validated edge by edge after a failure. The
   differential test in test_broadcast.ml checks every FIB, and every
   query derived from one, against it bit for bit. Only the public
   Topology API is read. *)

(* The spanning tree of [root] as a parent array: [parent.(root) = root]
   while [root] is alive, [-1] wherever the search does not reach. Vertex
   [u] tries its ports from [(variant + u) mod degree] on. *)
let parents topo ~root ~variant =
  let parent = Array.make (Topology.vertex_count topo) (-1) in
  if Topology.node_alive topo root then begin
    parent.(root) <- root;
    let q = Queue.create () in
    Queue.add root q;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      let hops = Topology.out_links topo u in
      let deg = Array.length hops in
      for i = 0 to deg - 1 do
        let v, l = hops.((i + variant + u) mod deg) in
        if parent.(v) < 0 && Topology.link_alive topo l then begin
          parent.(v) <- u;
          Queue.add v q
        end
      done
    done
  end;
  parent

(* Children of each vertex, ascending by vertex id. *)
let tree_children parent ~root =
  let n = Array.length parent in
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if v <> root && parent.(v) >= 0 then children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  children

(* Hop count of each vertex down the tree; [-1] where it does not reach. *)
let hops parent ~root =
  let h = Array.make (Array.length parent) (-1) in
  let rec hop v =
    if v = root then 0
    else begin
      if h.(v) < 0 then h.(v) <- hop parent.(v) + 1;
      h.(v)
    end
  in
  h.(root) <- 0;
  Array.iteri (fun v p -> if p >= 0 then ignore (hop v)) parent;
  h

(* A tree stays valid while every alive vertex reachable from the source
   hangs off an alive tree link. *)
let valid topo ~src parent =
  Topology.node_alive topo src
  &&
  let d = Topology.dist_to topo src in
  let ok = ref true in
  Array.iteri
    (fun v p ->
      if v <> src && Topology.node_alive topo v && d.(v) < max_int then begin
        let l = if p < 0 then -1 else Topology.find_link_id topo p v in
        if l < 0 || not (Topology.link_alive topo l) then ok := false
      end)
    parent;
  !ok

type t = {
  topo : Topology.t;
  trees : int;
  cache : (int array * int) option array;  (* parent array, version validated at *)
  mutable repairs : int;
}

let make ~trees topo =
  {
    topo;
    trees;
    cache = Array.make (Topology.vertex_count topo * trees) None;
    repairs = 0;
  }

(* The tree of [(src, tree)], re-validated against the current version:
   kept when still valid, rebuilt (and counted as a repair) when not. *)
let parent_array m ~src ~tree =
  let key = (src * m.trees) + tree and v = Topology.version m.topo in
  let build () = parents m.topo ~root:src ~variant:tree in
  let p =
    match m.cache.(key) with
    | Some (p, at) when at = v || valid m.topo ~src p -> p
    | Some _ ->
        m.repairs <- m.repairs + 1;
        build ()
    | None -> build ()
  in
  m.cache.(key) <- Some (p, v);
  p

let tree_valid m ~src ~tree =
  match m.cache.((src * m.trees) + tree) with
  | Some (p, at) -> at = Topology.version m.topo || valid m.topo ~src p
  | None -> Topology.node_alive m.topo src
