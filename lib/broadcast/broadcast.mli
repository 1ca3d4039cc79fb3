(** Rack-wide broadcast of flow events (paper §3.2).

    Every source owns several shortest-path spanning trees of the rack;
    a broadcast packet carries [(source, tree-id)] and intermediate nodes
    forward it to their children in that tree via a broadcast FIB. Using
    several trees per source load-balances the broadcast traffic and gives
    alternatives under failures. *)

type t

val make : ?trees_per_source:int -> Topology.t -> t
(** Build the broadcast FIB machinery (default
    {!Topology.trees_per_source} trees per source). Trees are constructed
    lazily per source and cached.

    Every per-tree query below raises [Invalid_argument "Broadcast: src out
    of range"] when [src] is not a vertex and [Invalid_argument "Broadcast:
    tree id out of range"] when [tree] is not in [\[0, trees_per_source)]. *)

val trees_per_source : t -> int

val choose_tree : t -> Util.Rng.t -> src:int -> int
(** Tree id for the next broadcast, drawn uniformly to spread load. *)

(** {2 Failure-aware tree repair}

    Cached trees are stamped with {!Topology.version}. After a fail/restore,
    the next access to a tree re-validates it with {!tree_valid}: a tree
    that no longer reaches every alive reachable vertex over alive links
    (a dead link or node cut some of them off, or a vertex became newly
    reachable) is rebuilt on the surviving graph and the FIB
    re-announcement traffic is accounted. Any other tree is kept as it is,
    including dead links that lead only into dead or cut-off vertices: the
    copies forwarded over them are lost, and [Net] counts them as
    blackholed control bytes. *)

val tree_valid : t -> src:int -> tree:int -> bool
(** Whether the (cached) tree still covers every alive reachable vertex over
    alive links. An unbuilt tree is valid iff the source is alive (it would
    be built on the surviving graph). *)

val repair_all : t -> int
(** Re-validate every cached tree, rebuilding the broken ones; returns how
    many were rebuilt. *)

val repairs : t -> int
(** Cumulative number of tree rebuilds caused by failures. *)

val repair_bytes : t -> int
(** Cumulative control traffic charged for repairs: one broadcast-sized FIB
    update per edge of each rebuilt tree. *)

type fib = Topology.tree
(** A tree's broadcast FIB, the only form in which a tree is kept: its
    {!Topology.tree}, where the bits set in vertex [v]'s bytes mark the
    links over which [v] forwards a [(src, tree)] packet, lowest bit
    first in ascending order of the child at their far end. One bit per
    out-link: a byte per vertex of degree at most 8 (512 bytes on an
    8x8x8 torus). Built once per tree; its bytes must not be mutated. *)

val fib : t -> src:int -> tree:int -> fib
(** The (re-validated) FIB of a tree — the allocation-free form of
    {!children} that packet replication walks. *)

(** The queries below are derived from the FIB on each call: O(vertices)
    time and a fresh result, for callers off the packet path. *)

val children : t -> src:int -> tree:int -> int -> int list
(** FIB lookup: nodes to which a vertex forwards a [(src, tree)] broadcast
    packet, in ascending order. *)

val parent : t -> src:int -> tree:int -> int -> int
(** Parent of a vertex in the tree ([src] is its own parent while alive;
    [-1] for a vertex the tree does not reach). *)

val depth : t -> src:int -> tree:int -> int
(** Maximum hop count from the source to any vertex — the broadcast time in
    hops. *)

val edges : t -> src:int -> tree:int -> (int * int) list
(** Tree edges as (parent, child) pairs in ascending child order;
    [Topology.vertex_count - 1] of them. *)

val delivery_hops : t -> src:int -> tree:int -> int array
(** Per-vertex hop distance from the source along the tree ([-1] where the
    tree does not reach). *)

(** {2 Overhead model (paper §3.2 and Fig. 9)} *)

val bytes_per_broadcast : Topology.t -> int
(** Total wire bytes of one 16-byte broadcast: 16 * (vertices - 1). *)

val analytic_overhead :
  Topology.t -> frac_small_bytes:float -> small_size:int -> large_size:int -> float
(** Fraction of total wire traffic consumed by flow-event broadcasts when a
    [frac_small_bytes] fraction of all payload bytes travels in flows of
    [small_size] bytes and the rest in flows of [large_size] bytes; every
    flow broadcasts a start and a finish event. Matches §3.2's examples:
    26.66%-per-10KB-flow relative overhead, 1.3% of capacity when 5% of
    bytes are in small flows. *)

val relative_flow_overhead : Topology.t -> flow_bytes:int -> float
(** Broadcast bytes (start + finish) over the expected wire bytes of a flow
    of the given size under minimal routing. *)
