(** Direct-connect rack topologies.

    A topology is a symmetric directed graph: every physical cable between
    two nodes appears as two directed links, one per direction. Rack nodes
    ("hosts") generate and sink traffic; a folded-Clos topology additionally
    contains switch vertices that only forward.

    Torus and mesh topologies are k-ary n-cube style: node identifiers are
    mixed-radix encodings of coordinates, [id = x0 + d0*(x1 + d1*x2 ...)]. *)

(** {2 Rack constants}

    The one rack every engine models (paper §5.2): the packet simulators,
    the TCP and PFQ baselines and the fluid emulator all read these, so
    their comparisons hold by construction. *)

val link_gbps : Util.Units.gbps
(** 10 Gbps per directed link. *)

val hop_latency_ns : int
(** 100 ns propagation and switching per fabric hop. *)

val mtu : int
(** 1,500 wire bytes per data packet, header included. *)

val headroom : Util.Units.fraction
(** 5% of every link's capacity held back from the rate allocation. *)

val trees_per_source : int
(** 4 broadcast spanning trees per source. *)

(** {2 Graphs} *)

type node = int
type link_id = int

type kind =
  | Torus of int array  (** wraparound per dimension; [Torus [|4;4;4|]] is a 4x4x4 3D torus *)
  | Mesh of int array  (** no wraparound *)
  | Clos of { leaves : int; spines : int; servers_per_leaf : int }
      (** two-level folded Clos; servers attach to leaves, leaves to spines *)
  | Flattened_butterfly of int
      (** k x k grid with full connectivity inside every row and column *)
  | Custom of string  (** composite fabrics, e.g. bridged racks (§6) *)

type t

val torus : int array -> t
(** [torus dims] builds a k-ary n-cube. Each dimension must be >= 2 except
    that a 1-sized dimension is ignored. *)

val mesh : int array -> t

val clos : leaves:int -> spines:int -> servers_per_leaf:int -> t
(** Two-level folded Clos: every leaf connects to every spine with one cable
    and to [servers_per_leaf] servers. Servers are vertices
    [0 .. leaves*servers_per_leaf - 1]. *)

val hypercube : int -> t
(** [hypercube n] is the n-dimensional binary hypercube — the degenerate
    k = 2 torus, provided as a convenience. *)

val flattened_butterfly : int -> t
(** [flattened_butterfly k] is the 2D flattened butterfly: a k x k node
    grid where every node links directly to every other node in its row
    and in its column (degree 2(k-1), diameter 2). Note that k > 5 exceeds
    the 8-links-per-node budget of the {!Wire} source-route format. *)

val kind : t -> kind

val vertex_count : t -> int
(** Total vertices, including Clos switches. *)

val host_count : t -> int
(** Number of traffic end-points; hosts are vertices [0 .. host_count-1]. *)

val link_count : t -> int
(** Number of directed links. Link ids are numbered source-major: the
    links out of vertex [u] carry consecutive ids in {!out_links} order,
    and all of them are below those out of [u + 1]. *)

val link_src : t -> link_id -> node
val link_dst : t -> link_id -> node

val out_links : t -> node -> (node * link_id) array
(** Outgoing neighbors of a vertex with the link towards each, in a fixed
    deterministic order. *)

val degree : t -> node -> int

val find_link : t -> node -> node -> link_id option
(** Directed link from [src] to an adjacent [dst], if any; [None] when the
    vertices are not adjacent or either is out of range. *)

val find_link_id : t -> node -> node -> int
(** Allocation-free {!find_link}: the directed link id, or [-1] when the
    vertices are not adjacent or either is out of range, found by a
    scan of [src]'s links in {!flat}. The packet hot path resolves one
    link per hop through this. *)

type flat = private {
  first : int array;
      (** [n + 1] entries: port [i] of [u], the [i]-th of {!out_links}, is
          link [first.(u) + i] *)
  ldst : int array;  (** the far end of every link *)
}
(** The adjacency as flat arrays, for the searches and the routing
    kernels to fetch once per call. Never written. *)

val flat : t -> flat

val cable_ids : t -> node -> node -> link_id * link_id
(** [cable_ids t u v] is the cable between [u] and [v] as its two directed
    links, [(u -> v, v -> u)]. Raises [Invalid_argument] if the vertices are
    not adjacent. *)

(** {2 Live down-state}

    Links and nodes can be failed at runtime without rebuilding the graph:
    the overlay masks dead elements out of {!bfs}-derived distances,
    {!productive_hops} and {!shortest_path_tree}, invalidating cached
    distance arrays selectively (an entry towards [dst] is dropped only if
    the changed element can sit on — or, for restores, create — a shortest
    path towards [dst]). Multi-failure scenarios compose: a link is alive
    iff it is not explicitly failed and both endpoints are up, so restoring
    a node does not resurrect a cable that was failed on its own. *)

val fail_link : t -> node -> node -> unit
(** Fail the (bidirectional) cable between two adjacent vertices. Idempotent.
    Raises [Invalid_argument] if the vertices are not adjacent. *)

val restore_link : t -> node -> node -> unit
(** Undo {!fail_link}. Idempotent. *)

val fail_node : t -> node -> unit
(** Take a vertex down; every incident link becomes dead. Idempotent. *)

val restore_node : t -> node -> unit
(** Undo {!fail_node}. Idempotent. *)

val link_alive : t -> link_id -> bool
(** A directed link is alive iff it is not failed and both endpoints are up. *)

val node_alive : t -> node -> bool

val alive_vertex_count : t -> int
(** Number of vertices currently up (switches included). *)

val version : t -> int
(** Monotonic counter bumped by every effective fail/restore; consumers
    caching derived structures (routing DAGs, broadcast trees) compare it
    to decide staleness. *)

val reachable : t -> node -> node -> bool
(** Both vertices up and connected by alive links. *)

val coords : t -> node -> int array
(** Coordinates of a torus/mesh node. Raises [Invalid_argument] for Clos. *)

val of_coords : t -> int array -> node

val distance : t -> node -> node -> int
(** Hop count of a shortest path. *)

val dist_to : t -> node -> int array
(** [dist_to t dst] is the array of shortest-path distances from every
    vertex to [dst], over alive links and nodes only ([max_int] marks
    unreachable). Computed once per destination and cached; fail/restore
    invalidates affected entries. A cold call allocates the array only. *)

val productive_hops : t -> node -> dst:node -> (node * link_id) array
(** Next hops of [node] lying on some shortest path to [dst] over alive
    links, in {!out_links} order. Empty if [node = dst] or [dst] is
    unreachable; never contains a failed link. *)

val mask_row : t -> dst:node -> int
(** [mask_row t ~dst] names [dst]'s productive-port mask, one bit per
    port of every vertex, set iff {!productive_hops} lists that hop, for
    {!productive_ports} to read. The row is filled from {!dist_to}[ t dst]
    on its first read and dropped with those distances; it allocates
    nothing once they and the graph's one mask store exist. A row read
    before a fail or restore may be stale: fetch it again after one.
    Raises [Invalid_argument] when [dst] is out of range. *)

val productive_ports : t -> row:int -> node -> int array -> int
(** [productive_ports t ~row u ports] is {!productive_hops} towards the
    destination of [row] ({!mask_row}) without allocating: it writes the
    positions in [out_links t u] of the productive hops into [ports]
    (ascending; [ports] needs room for [degree t u]) and returns their
    count. A kernel fetches the row once per call and reads it here once
    per vertex. *)

val lowest_bit : string
(** The index of the lowest set bit of each nonzero byte, as a character
    code, to walk a byte of a {!tree} one set bit at a time. *)

val average_distance : t -> float
(** Mean shortest-path distance over distinct host pairs (exact for small
    topologies, sampled above 4096 pairs with a fixed seed). *)

val diameter : t -> int
(** Maximum shortest-path distance between hosts. *)

val bisection_links : t -> int
(** Number of unidirectional links crossing a bisection of the hosts (cut
    along the largest dimension for torus/mesh, the leaf-spine stage for
    Clos). *)

type tree = private Bytes.t
(** A spanning tree as one bit per (vertex, out-link) slot, set when the
    link is a tree edge. Vertex [v]'s slots fill bytes
    [first_byte.(v) .. first_byte.(v + 1) - 1] of {!tree_layout}, one
    per out-link in ascending order of the vertex at its far end, so its
    set bits, walked lowest first, list its children in ascending id
    order; {!iter_tree_links} walks them. Every tree of a graph takes
    [first_byte.(n)] bytes, one per vertex of degree at most 8: 512 on
    an 8x8x8 torus. *)

type tree_layout = private {
  first_byte : int array;
      (** [n + 1] entries: vertex [v]'s slots fill [⌈degree v / 8⌉] bytes
          from [first_byte.(v)] on *)
  slot_link : int array;
      (** the link of slot [8 * byte + bit]; -1 for the padding bits past
          a vertex's degree *)
  link_slot : int array;  (** the slot of each link: [slot_link]'s inverse *)
  reached : Bytes.t;
      (** {!shortest_path_tree}'s per-vertex marks, all ['\000'] between
          searches *)
}
(** The slots every tree of a graph lays its bits out in. *)

val tree_layout : t -> tree_layout
(** The graph's tree layout, built with its first tree (or on the first
    call) and kept for the graph's life: the slots depend on the cables
    alone, not on their down-state. *)

val iter_tree_links : t -> tree -> node -> (link_id -> unit) -> unit
(** [iter_tree_links t tr v f] applies [f] to each link over which [v]
    forwards in [tr], in ascending order of the child at its far end. *)

val shortest_path_tree : t -> root:node -> variant:int -> tree
(** [shortest_path_tree t ~root ~variant] is a spanning tree of all alive
    vertices reachable from [root] over alive links (none when [root] is
    dead); every tree path from the root is a shortest path. Different
    [variant] values rotate the neighbor exploration order, producing
    (generally) different trees. Allocates the tree only, once
    {!tree_layout} exists. *)

val bridge : t -> t -> cables:(node * node) list -> t
(** [bridge a b ~cables] composes two racks into one fabric by adding
    direct cables — the switchless inter-rack interconnect sketched in the
    paper's §6 ("directly connect multiple rack-scale computers without
    using any switch"). Vertices of [b] are renumbered by
    [Topology.vertex_count a]; [cables] pairs an [a]-vertex with a
    [b]-vertex (pre-renumbering). The result is a [Custom] composite:
    coordinate-based routing falls back to generic shortest paths. Raises
    [Invalid_argument] when [cables] is empty, names a vertex that is not a
    host, lists a cable twice, or a rack has switches. *)

val pp : Format.formatter -> t -> unit
