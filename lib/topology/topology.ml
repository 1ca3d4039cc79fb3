let link_gbps = Util.Units.gbps 10.0
let hop_latency_ns = 100
let mtu = 1500
let headroom = Util.Units.fraction 0.05
let trees_per_source = 4

type node = int
type link_id = int

type kind =
  | Torus of int array
  | Mesh of int array
  | Clos of { leaves : int; spines : int; servers_per_leaf : int }
  | Flattened_butterfly of int
  | Custom of string

(* Compressed sparse rows: link ids are source-major, so vertex [u]'s
   links are ids [first.(u) .. first.(u + 1) - 1] in port order and
   [ldst] lists their far ends. *)
type flat = { first : int array; ldst : int array }

type t = {
  kind : kind;
  hosts : int;
  nverts : int;
  (* The adjacency as (neighbour, link) tuples, for the cold callers of
     [out_links]; the searches and the routing kernels read [flat]. *)
  out : (node * link_id) array array;
  flat : flat;
  (* Vertex [u]'s bytes in a mask row or a tree start at
     [port_byte.(u)], one byte per 8 ports. *)
  port_byte : int array;
  lsrc : int array;
  (* Distances towards each destination, indexed by destination; [||] =
     not computed. Reading an entry allocates nothing. *)
  dist_cache : int array array;
  (* Live down-state overlay: links and nodes can be failed and restored
     without rebuilding the graph. [link_failed] records explicitly failed
     directed links; a link is alive only if it is not failed AND both its
     endpoints are up, so node and link failures compose. [live] holds
     that verdict, one byte per link ('\001' = alive), refreshed by every
     fail and restore, so a hot loop tests a link with one load. *)
  link_failed : bool array;
  node_up : bool array;
  live : Bytes.t;
  mutable version : int;
  (* Breadth-first search queue, shared by every search on this graph so
     that a search allocates nothing but its output. *)
  queue : int array;
  (* The slots every spanning tree of the graph lays its bits out in;
     [None] until the first tree is built. *)
  mutable layout : tree_layout option;
  (* The productive-port masks of every destination in one store, empty
     until the first mask read (see [mask_row]). *)
  mutable masks : Bytes.t;
}

and tree_layout = {
  first_byte : int array;
  slot_link : int array;
  link_slot : int array;
  reached : Bytes.t;
}

(* -- construction ------------------------------------------------------- *)

let build ~kind ~hosts ~nverts edges =
  (* [edges] are undirected cables; materialize two directed links each.
     A pair of vertices has at most one cable, so that the link id
     [find_link_id] names for it is the only one. *)
  let adj = Array.make nverts [] in
  List.iter
    (fun (u, v) ->
      assert (u <> v && u >= 0 && v >= 0 && u < nverts && v < nverts);
      if List.mem v adj.(u) then invalid_arg "Topology: cable listed twice";
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let first = Array.make (nverts + 1) 0 and first_byte = Array.make (nverts + 1) 0 in
  for u = 0 to nverts - 1 do
    let deg = List.length adj.(u) in
    first.(u + 1) <- first.(u) + deg;
    first_byte.(u + 1) <- first_byte.(u) + ((deg + 7) / 8)
  done;
  let m = first.(nverts) in
  let lsrc = Array.make m 0 and ldst = Array.make m 0 in
  let out =
    Array.init nverts (fun u ->
        Array.of_list
          (List.mapi
             (fun i v ->
               let l = first.(u) + i in
               lsrc.(l) <- u;
               ldst.(l) <- v;
               (v, l))
             (List.rev adj.(u))))
  in
  {
    kind;
    hosts;
    nverts;
    out;
    flat = { first; ldst };
    port_byte = first_byte;
    lsrc;
    dist_cache = Array.make nverts [||];
    link_failed = Array.make m false;
    node_up = Array.make nverts true;
    live = Bytes.make m '\001';
    version = 0;
    queue = Array.make nverts 0;
    layout = None;
    masks = Bytes.empty;
  }

let effective_dims dims =
  let dims = Array.of_list (List.filter (fun d -> d > 1) (Array.to_list dims)) in
  if Array.length dims = 0 then invalid_arg "Topology: all dimensions are 1";
  Array.iter (fun d -> if d < 2 then invalid_arg "Topology: dimension < 2") dims;
  dims

let product = Array.fold_left ( * ) 1

let coords_of ~dims id =
  let n = Array.length dims in
  let c = Array.make n 0 in
  let rem = ref id in
  for i = 0 to n - 1 do
    c.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  c

let id_of ~dims c =
  let id = ref 0 in
  for i = Array.length dims - 1 downto 0 do
    assert (c.(i) >= 0 && c.(i) < dims.(i));
    id := (!id * dims.(i)) + c.(i)
  done;
  !id

let grid_edges ~dims ~wrap =
  let n = product dims in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let c = coords_of ~dims u in
    (* Only the +1 direction per dimension, so each cable appears once.
       With wraparound and k = 2 the +1 and -1 neighbors coincide. *)
    Array.iteri
      (fun i k ->
        let x = c.(i) in
        if x + 1 < k then begin
          let c' = Array.copy c in
          c'.(i) <- x + 1;
          edges := (u, id_of ~dims c') :: !edges
        end
        else if wrap && k > 2 && x = k - 1 then begin
          let c' = Array.copy c in
          c'.(i) <- 0;
          edges := (u, id_of ~dims c') :: !edges
        end)
      dims
  done;
  List.rev !edges

let torus dims =
  let dims = effective_dims dims in
  let n = product dims in
  build ~kind:(Torus dims) ~hosts:n ~nverts:n (grid_edges ~dims ~wrap:true)

let mesh dims =
  let dims = effective_dims dims in
  let n = product dims in
  build ~kind:(Mesh dims) ~hosts:n ~nverts:n (grid_edges ~dims ~wrap:false)

let clos ~leaves ~spines ~servers_per_leaf =
  if leaves < 1 || spines < 1 || servers_per_leaf < 1 then invalid_arg "Topology.clos";
  let servers = leaves * servers_per_leaf in
  let leaf l = servers + l in
  let spine s = servers + leaves + s in
  let edges = ref [] in
  for i = 0 to servers - 1 do
    edges := (i, leaf (i / servers_per_leaf)) :: !edges
  done;
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      edges := (leaf l, spine s) :: !edges
    done
  done;
  build
    ~kind:(Clos { leaves; spines; servers_per_leaf })
    ~hosts:servers
    ~nverts:(servers + leaves + spines)
    (List.rev !edges)

let pp_kind ppf = function
  | Torus dims ->
      Format.fprintf ppf "torus %s"
        (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
  | Mesh dims ->
      Format.fprintf ppf "mesh %s"
        (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
  | Clos _ -> Format.pp_print_string ppf "clos"
  | Flattened_butterfly k -> Format.fprintf ppf "fb %d" k
  | Custom name -> Format.pp_print_string ppf name

let hypercube n =
  if n < 1 then invalid_arg "Topology.hypercube: dimension < 1";
  torus (Array.make n 2)

let flattened_butterfly k =
  if k < 2 then invalid_arg "Topology.flattened_butterfly: k < 2";
  let dims = [| k; k |] in
  let n = k * k in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let c = coords_of ~dims u in
    (* Full row and column connectivity; each cable counted once. *)
    for x = c.(0) + 1 to k - 1 do
      edges := (u, id_of ~dims [| x; c.(1) |]) :: !edges
    done;
    for y = c.(1) + 1 to k - 1 do
      edges := (u, id_of ~dims [| c.(0); y |]) :: !edges
    done
  done;
  build ~kind:(Flattened_butterfly k) ~hosts:n ~nverts:n (List.rev !edges)

let edges_of t =
  let acc = ref [] in
  for u = 0 to t.nverts - 1 do
    Array.iter (fun (v, _) -> if u < v then acc := (u, v) :: !acc) t.out.(u)
  done;
  List.rev !acc

let bridge a b ~cables =
  if cables = [] then invalid_arg "Topology.bridge: no cables";
  let off = a.nverts in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= a.hosts || v < 0 || v >= b.hosts then
        invalid_arg "Topology.bridge: cable endpoint out of host range")
    cables;
  let edges =
    edges_of a
    @ List.map (fun (u, v) -> (u + off, v + off)) (edges_of b)
    @ List.map (fun (u, v) -> (u, v + off)) cables
  in
  let name =
    Format.asprintf "bridge(%a | %a, %d cables)" pp_kind a.kind pp_kind b.kind
      (List.length cables)
  in
  (* Switch vertices of either rack stay non-hosts: renumber b's hosts to
     follow a's, then b's switches, then a's switches would interleave —
     keep it simple by requiring pure-host racks for bridging. *)
  if a.hosts <> a.nverts || b.hosts <> b.nverts then
    invalid_arg "Topology.bridge: switched (Clos) racks cannot be bridged directly";
  build ~kind:(Custom name) ~hosts:(a.nverts + b.nverts) ~nverts:(a.nverts + b.nverts) edges

(* -- accessors ---------------------------------------------------------- *)

let kind t = t.kind
let vertex_count t = t.nverts
let host_count t = t.hosts
let link_count t = Array.length t.lsrc
let link_src t l = t.lsrc.(l)
let link_dst t l = t.flat.ldst.(l)
let out_links t u = t.out.(u)
let degree t u = Array.length t.out.(u)
let flat t = t.flat

(* A scan of [u]'s neighbours: at most its degree, one cache line of
   [ldst] on a torus. *)
let find_link_id t u v =
  let n = t.nverts in
  if u < 0 || u >= n || v < 0 || v >= n then -1
  else begin
    let { first; ldst } = t.flat in
    let stop = Array.unsafe_get first (u + 1) in
    let l = ref (Array.unsafe_get first u) in
    while !l < stop && Array.unsafe_get ldst !l <> v do
      incr l
    done;
    if !l < stop then !l else -1
  end

let find_link t u v =
  let l = find_link_id t u v in
  if l < 0 then None else Some l

(* -- live down-state ----------------------------------------------------- *)

let node_alive t u = t.node_up.(u)
let link_alive t l = Bytes.get t.live l = '\001'
let version t = t.version

let alive_vertex_count t =
  let n = ref 0 in
  Array.iter (fun up -> if up then incr n) t.node_up;
  !n

let cable_ids t u v =
  let a = find_link_id t u v and b = find_link_id t v u in
  if a < 0 || b < 0 then invalid_arg "Topology: vertices not adjacent";
  (a, b)

let refresh_live t l =
  let alive = (not t.link_failed.(l)) && t.node_up.(t.lsrc.(l)) && t.node_up.(t.flat.ldst.(l)) in
  Bytes.set t.live l (if alive then '\001' else '\000')

(* Both links of every cable at [u]. *)
let refresh_cables_at t u =
  let { first; ldst } = t.flat in
  for l = first.(u) to first.(u + 1) - 1 do
    refresh_live t l;
    refresh_live t (find_link_id t ldst.(l) u)
  done

(* The mask store holds one row of [port_byte.(n)] bytes per
   destination, then one byte per destination, '\001' while its row is
   filled. *)
let mask_ready t dst = (t.nverts * t.port_byte.(t.nverts)) + dst

(* Cache invalidation is selective: a cached distance array towards [dst]
   is dropped only when the changed element can lie on (failure) or create
   (restore) a shortest path towards [dst] under the distances the cache
   currently holds. The destination's mask row is dropped with them.
   A row that stays is still right: a link is productive only if its
   ends' distances differ by exactly one, and a change that keeps the
   distances flips the liveness of no such link. A cut or restored
   cable keeps them only if its ends' distances do not differ by one,
   and a failed node only if it is unreachable (max_int, more than one
   away from any distance). *)
let drop t dst =
  t.dist_cache.(dst) <- [||];
  if Bytes.length t.masks > 0 then Bytes.set t.masks (mask_ready t dst) '\000'

let invalidate t stale =
  for dst = 0 to t.nverts - 1 do
    let d = t.dist_cache.(dst) in
    if Array.length d > 0 && stale d then drop t dst
  done

let invalidate_link_failure t u v =
  invalidate t (fun d ->
      let du = d.(u) and dv = d.(v) in
      du < max_int && dv < max_int && abs (du - dv) = 1)

let invalidate_link_restore t u v = invalidate t (fun d -> d.(u) <> d.(v))
let invalidate_node_failure t u = invalidate t (fun d -> d.(u) < max_int)

let fail_link t u v =
  let a, b = cable_ids t u v in
  if not (t.link_failed.(a) && t.link_failed.(b)) then begin
    invalidate_link_failure t u v;
    t.link_failed.(a) <- true;
    t.link_failed.(b) <- true;
    refresh_live t a;
    refresh_live t b;
    t.version <- t.version + 1
  end

let restore_link t u v =
  let a, b = cable_ids t u v in
  if t.link_failed.(a) || t.link_failed.(b) then begin
    t.link_failed.(a) <- false;
    t.link_failed.(b) <- false;
    refresh_live t a;
    refresh_live t b;
    invalidate_link_restore t u v;
    t.version <- t.version + 1
  end

let fail_node t u =
  if u < 0 || u >= t.nverts then invalid_arg "Topology.fail_node";
  if t.node_up.(u) then begin
    invalidate_node_failure t u;
    t.node_up.(u) <- false;
    refresh_cables_at t u;
    t.version <- t.version + 1
  end

let restore_node t u =
  if u < 0 || u >= t.nverts then invalid_arg "Topology.restore_node";
  if not t.node_up.(u) then begin
    t.node_up.(u) <- true;
    refresh_cables_at t u;
    (* A node coming back can shorten arbitrary paths; flush everything. *)
    for dst = 0 to t.nverts - 1 do
      drop t dst
    done;
    t.version <- t.version + 1
  end

let coords t id =
  match t.kind with
  | Torus dims | Mesh dims -> coords_of ~dims id
  | Flattened_butterfly k -> coords_of ~dims:[| k; k |] id
  | Clos _ | Custom _ -> invalid_arg "Topology.coords: no coordinate system"

let of_coords t c =
  match t.kind with
  | Torus dims | Mesh dims -> id_of ~dims c
  | Flattened_butterfly k -> id_of ~dims:[| k; k |] c
  | Clos _ | Custom _ -> invalid_arg "Topology.of_coords: no coordinate system"

(* -- distances ---------------------------------------------------------- *)

let bfs t src =
  let dist = Array.make t.nverts max_int in
  if t.node_up.(src) then begin
    let q = t.queue and { first; ldst } = t.flat and live = t.live in
    dist.(src) <- 0;
    q.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      for l = first.(u) to first.(u + 1) - 1 do
        let v = ldst.(l) in
        if dist.(v) = max_int && Bytes.unsafe_get live l = '\001' then begin
          dist.(v) <- dist.(u) + 1;
          q.(!tail) <- v;
          incr tail
        end
      done
    done
  end;
  dist

let dist_to t dst =
  (* The graph is symmetric, so a forward BFS from [dst] yields distances
     towards [dst]. *)
  let d = t.dist_cache.(dst) in
  if Array.length d > 0 then d
  else begin
    let d = bfs t dst in
    t.dist_cache.(dst) <- d;
    d
  end

let distance t u v = (dist_to t v).(u)

(* The one productive-hop test: 1 if link [l] out of a vertex [u] steps
   one hop closer to the destination whose distances are [d] (so
   [closer] = d.(u) - 1) and is alive, else 0, without a branch, as it
   fills mask bits. The distance filter alone is not enough: a dead link
   between two alive vertices still satisfies d.(v) = d.(u) - 1.
   Unreachable [u] (d.(u) = max_int) and [u] = dst (d.(u) = 0) have no
   productive hop, since distances are either below the vertex count or
   max_int. The unchecked reads are in range: [l] is a link, and [d] has
   an entry per vertex. *)
let[@inline] productive t (d : int array) ~closer l =
  Bool.to_int (Array.unsafe_get d (Array.unsafe_get t.flat.ldst l) = closer)
  land Char.code (Bytes.unsafe_get t.live l)

let lowest_bit =
  String.init 256 (fun b ->
      let rec low i = if b = 0 || b land (1 lsl i) <> 0 then i else low (i + 1) in
      Char.chr (low 0))

let mask_store t =
  if Bytes.length t.masks = 0 then begin
    let n = t.nverts in
    t.masks <- Bytes.make ((n * t.port_byte.(n)) + n) '\000'
  end;
  t.masks

(* A row is filled from the destination's cached distances on its first
   read, and dropped with them ([drop]). *)
let mask_row t ~dst =
  if dst < 0 || dst >= t.nverts then invalid_arg "Topology.mask_row";
  let masks = mask_store t in
  let first = t.flat.first and first_byte = t.port_byte in
  let row = dst * first_byte.(t.nverts) in
  let ready = mask_ready t dst in
  if Bytes.get masks ready = '\000' then begin
    let d = dist_to t dst in
    for u = 0 to t.nverts - 1 do
      let closer = d.(u) - 1 in
      for y = first_byte.(u) to first_byte.(u + 1) - 1 do
        let lo = first.(u) + (8 * (y - first_byte.(u))) in
        let bits = ref 0 in
        for l = lo to Int.min (lo + 8) first.(u + 1) - 1 do
          bits := !bits lor (productive t d ~closer l lsl (l - lo))
        done;
        Bytes.set masks (row + y) (Char.unsafe_chr !bits)
      done
    done;
    Bytes.set masks ready '\001'
  end;
  row

(* The one mask decoder: set bits, lowest first, give the ports in
   order. *)
let productive_ports t ~row u ports =
  let masks = t.masks and first_byte = t.port_byte in
  let n = ref 0 in
  for y = first_byte.(u) to first_byte.(u + 1) - 1 do
    let bits = ref (Char.code (Bytes.get masks (row + y))) in
    while !bits <> 0 do
      ports.(!n) <- (8 * (y - first_byte.(u))) + Char.code (String.unsafe_get lowest_bit !bits);
      incr n;
      bits := !bits land (!bits - 1)
    done
  done;
  !n

let productive_hops t u ~dst =
  let d = dist_to t dst in
  let closer = d.(u) - 1 in
  Array.of_list (List.filter (fun (_, l) -> productive t d ~closer l = 1) (Array.to_list t.out.(u)))

let reachable t u v =
  t.node_up.(u) && t.node_up.(v) && (u = v || (dist_to t v).(u) < max_int)

let average_distance t =
  let h = t.hosts in
  let pairs = h * (h - 1) in
  if pairs <= 4096 then begin
    let total = ref 0 in
    for u = 0 to h - 1 do
      let d = dist_to t u in
      for v = 0 to h - 1 do
        if u <> v then total := !total + d.(v)
      done
    done;
    float_of_int !total /. float_of_int pairs
  end
  else begin
    let rng = Util.Rng.create 42 in
    let total = ref 0 and count = ref 0 in
    while !count < 4096 do
      let u = Util.Rng.int rng h and v = Util.Rng.int rng h in
      if u <> v then begin
        total := !total + distance t u v;
        incr count
      end
    done;
    float_of_int !total /. 4096.0
  end

let diameter t =
  match t.kind with
  | Torus dims -> Array.fold_left (fun acc k -> acc + (k / 2)) 0 dims
  | Mesh dims -> Array.fold_left (fun acc k -> acc + (k - 1)) 0 dims
  | Flattened_butterfly _ -> 2
  | Clos _ | Custom _ ->
      let d = dist_to t 0 in
      let m = ref 0 in
      for v = 0 to t.hosts - 1 do
        if d.(v) > !m then m := d.(v)
      done;
      (* All host pairs are symmetric in a Clos; distance from host 0 is the
         worst case. *)
      !m

let bisection_links t =
  match t.kind with
  | Torus dims ->
      let n = product dims in
      let k = Array.fold_left max 0 dims in
      if k > 2 then 4 * n / k else 2 * n / k
  | Mesh dims ->
      let n = product dims in
      let k = Array.fold_left max 0 dims in
      2 * n / k
  | Clos { leaves; spines; _ } -> leaves * spines
  | Flattened_butterfly k ->
      (* Cut the columns in half: per row, (k/2)*(k - k/2) cables cross. *)
      2 * k * (k / 2) * (k - (k / 2))
  | Custom _ ->
      (* The natural cut of a bridged fabric is the bridge itself; fall
         back to a half-split BFS frontier count. *)
      let half = t.hosts / 2 in
      let crossing = ref 0 in
      for u = 0 to t.nverts - 1 do
        Array.iter (fun (v, _) -> if (u < half) <> (v < half) then incr crossing) t.out.(u)
      done;
      !crossing

(* -- spanning trees ----------------------------------------------------- *)

type tree = Bytes.t

(* Vertex [u]'s slots are its out-links sorted by the vertex at their far
   end, slot [i] being bit [i land 7] of byte [first_byte.(u) + i / 8]:
   the order the tree's children are listed in. *)
let tree_layout t =
  match t.layout with
  | Some lay -> lay
  | None ->
      let n = t.nverts and first_byte = t.port_byte in
      let slot_link = Array.make (8 * first_byte.(n)) (-1) in
      let link_slot = Array.make (link_count t) 0 in
      for u = 0 to n - 1 do
        let by_far_end = Array.copy t.out.(u) in
        Array.sort (fun (v, _) (w, _) -> Int.compare v w) by_far_end;
        Array.iteri
          (fun i (_, l) ->
            let s = (8 * first_byte.(u)) + i in
            slot_link.(s) <- l;
            link_slot.(l) <- s)
          by_far_end
      done;
      let lay = { first_byte; slot_link; link_slot; reached = Bytes.make n '\000' } in
      t.layout <- Some lay;
      lay

let iter_tree_links t tr u f =
  let lay = tree_layout t in
  for y = lay.first_byte.(u) to lay.first_byte.(u + 1) - 1 do
    let bits = ref (Char.code (Bytes.get tr y)) and s = ref (8 * y) in
    while !bits <> 0 do
      if !bits land 1 <> 0 then f lay.slot_link.(!s);
      bits := !bits lsr 1;
      incr s
    done
  done

(* The tree is written straight from the search: the link over which a
   vertex is first reached sets its bit. The marks of the reached
   vertices are cleared again from the queue, which holds exactly them. *)
let shortest_path_tree t ~root ~variant =
  let lay = tree_layout t in
  let tr = Bytes.make lay.first_byte.(t.nverts) '\000' in
  if t.node_up.(root) then begin
    let q = t.queue and reached = lay.reached and { first; ldst } = t.flat and live = t.live in
    Bytes.set reached root '\001';
    q.(0) <- root;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      let base = first.(u) in
      let deg = first.(u + 1) - base in
      (* Rotate exploration order so different variants attach vertices to
         different shortest-path parents. *)
      let rot = (variant + u) mod deg in
      for i = 0 to deg - 1 do
        let j = rot + i in
        let l = base + if j < deg then j else j - deg in
        let v = ldst.(l) in
        if Bytes.get reached v = '\000' && Bytes.unsafe_get live l = '\001' then begin
          Bytes.set reached v '\001';
          let s = lay.link_slot.(l) in
          let y = s lsr 3 in
          Bytes.set tr y (Char.unsafe_chr (Char.code (Bytes.get tr y) lor (1 lsl (s land 7))));
          q.(!tail) <- v;
          incr tail
        end
      done
    done;
    for i = 0 to !tail - 1 do
      Bytes.set reached q.(i) '\000'
    done
  end;
  tr

let pp ppf t =
  let pp_dims ppf dims =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "x")
      Format.pp_print_int ppf (Array.to_list dims)
  in
  match t.kind with
  | Torus dims -> Format.fprintf ppf "torus %a (%d nodes, %d links)" pp_dims dims t.hosts (link_count t)
  | Mesh dims -> Format.fprintf ppf "mesh %a (%d nodes, %d links)" pp_dims dims t.hosts (link_count t)
  | Clos { leaves; spines; servers_per_leaf } ->
      Format.fprintf ppf "clos %d leaves x %d spines, %d servers/leaf (%d hosts)" leaves spines
        servers_per_leaf (leaves * servers_per_leaf)
  | Flattened_butterfly k ->
      Format.fprintf ppf "flattened butterfly %dx%d (%d nodes, %d links)" k k t.hosts
        (link_count t)
  | Custom name -> Format.fprintf ppf "%s (%d nodes, %d links)" name t.hosts (link_count t)
