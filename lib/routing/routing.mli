(** Routing protocols for direct-connect rack topologies.

    Four protocols from the paper (§2.2.1):
    - {b RPS} — randomized packet spraying: every packet takes an independent
      uniformly-drawn shortest path.
    - {b DOR} — destination-tag / dimension-order routing: one deterministic
      shortest path, correcting coordinates dimension by dimension.
    - {b VLB} — Valiant load balancing: every packet bounces off a uniformly
      random intermediate host, taking a random minimal path per phase.
    - {b WLB} — weighted load balancing: like VLB but the waypoint is drawn
      with probability biased towards shorter total paths.

    Besides per-packet path sampling (data plane), the module computes a
    flow's {e link fractions}: the expected fraction of the flow's rate
    crossing each directed link, which is what the paper's flow-level rate
    computation consumes (§3.3). A {!row} is built on every {!fractions}
    call and belongs to whoever holds it (a flow, or a search that
    evaluates the same rows many times); the {!ctx} caches only what rows
    are built from.

    Both kernels run on working memory the context allocates on first
    use, so a sampled path and a fresh fraction row allocate only their
    output (DESIGN.md §11). *)

type protocol = Rps | Dor | Vlb | Wlb

val all_protocols : protocol list
val protocol_to_int : protocol -> int
val protocol_of_int : int -> protocol option
val protocol_name : protocol -> string
val pp_protocol : Format.formatter -> protocol -> unit

type ctx
(** Per-topology routing context. It caches what rows and paths are
    built from, never a row: VLB's per-source and per-destination sums of
    minimal fractions over every waypoint (a VLB row is then one pass
    over the links) and WLB's per-pair waypoint weights, which its
    per-packet sampler reads too; {!Topology} caches distances per
    destination. The caches are stamped with {!Topology.version} and the
    link-health version and flushed automatically after any fail/restore
    or health transition, so sampled paths never emit a dead link and fractions
    reflect the surviving graph: DOR detours over the surviving
    shortest-path DAG when its coordinate path crosses a dead link, VLB
    resamples waypoints that died or were cut off, and WLB gives them zero
    weight. Sampling a path or fractions towards an unreachable
    destination raises [Invalid_argument]. *)

val make : Topology.t -> ctx
val topo : ctx -> Topology.t

(** {2 Data plane: per-packet path sampling} *)

val sample_path : ctx -> Util.Rng.t -> protocol -> src:int -> dst:int -> int array
(** Vertex sequence [src; ...; dst] of one packet's path. For RPS/DOR the
    path is minimal; for VLB/WLB it concatenates two minimal phases through
    a waypoint. [src <> dst] required. A fresh copy of {!sample_into}'s
    buffer; the copy is all it allocates beyond {!sample_into}. *)

val sample_into : ctx -> Util.Rng.t -> protocol -> src:int -> dst:int -> int
(** {!sample_path} without the copy: writes the path into {!path_buffer}
    and returns its vertex count. Same path, same draws. Allocates nothing
    for RPS and for VLB once the context is warm (demoted links and WLB
    box one float draw; DOR enumerates its coordinate paths). *)

val path_buffer : ctx -> int array
(** The context's path buffer: after [n = sample_into ...], positions
    [0 .. n-1] hold the path until the next call into the same context.
    Owned by the context, never by the caller. *)

val ecmp_path : ctx -> flow_id:int -> src:int -> dst:int -> int array
(** Deterministic shortest path chosen by hashing the flow identifier — the
    single-path routing used under the TCP baseline. *)

val path_links : ctx -> int array -> int array
(** Directed-link ids along a vertex path. Raises if consecutive vertices
    are not adjacent. *)

val sample_paths_distinct : ctx -> Util.Rng.t -> k:int -> src:int -> dst:int -> int array list
(** Up to [k] distinct minimal vertex paths (used by the idealized per-flow
    queue baseline). *)

(** {2 Control plane: link fractions} *)

type row = private {
  links : int array;  (** link ids *)
  fracs : Util.Units.fraction array;  (** [fracs.(j)] is link [links.(j)]'s share, > 0 *)
  bound : int;  (** one past the largest link id; 0 for an empty row *)
}
(** A flow's link-fraction row: a flow sending at rate [r] puts
    [r *. fracs.(j)] on link [links.(j)]. Both arrays are unboxed and of
    equal length. A row is immutable: it is validated once, where it is
    built, then shared by reference by every flow, allocator and search
    that holds it, and never written. Rows from
    {!fractions} list their links in ascending id order; a hand-built
    {!val-row} keeps the order it was given. *)

val row : links:int array -> fracs:Util.Units.fraction array -> row
(** A hand-built row (a path's links, say), entries in the order given;
    both arrays are copied. Raises [Invalid_argument] on arrays of
    different lengths, a negative link id or a fraction that is not
    positive. *)

val fractions : ctx -> protocol -> src:int -> dst:int -> row
(** [fractions ctx p ~src ~dst] is the row of a [src]->[dst] flow under
    protocol [p]: every link with a non-zero expected rate fraction. For
    minimal protocols the fractions out of [src] sum to 1; for VLB/WLB a
    link can carry both phases so per-link fractions may exceed
    shortest-path values. Built afresh on every call from the context's
    current topology and link health, so repeated calls return equal
    rows, bit for bit; a caller that evaluates one row many times holds
    it itself. *)

val wlb_beta : float
(** Path-length bias of WLB: waypoint [w] is drawn with probability
    proportional to [wlb_beta ^ (d(s,w) + d(w,d) - d(s,d))]. *)

(** {2 Gray-failure quarantine}

    A flaky link is not dead, so deleting it (the fail/restore overlay)
    would be both wrong and unobservable — once no traffic crosses the
    link, nothing can notice it recovering. Instead the health estimator
    {e demotes} a suspect cable: its sampling weight in spraying
    ([Healthy] 1.0, [Probation] {!probation_weight}, [Quarantined]
    {!quarantine_weight}) shrinks, the fraction DP splits mass by the same
    weights, and VLB/WLB waypoints sitting behind a quarantined cable are
    kept only with the demoted weight. The residual trickle keeps probing
    the link so probation can observe recovery. Health transitions flush
    the context's caches (VLB's sums, WLB's waypoint weights) exactly like
    a topology fail/restore, and rows built afterwards see the new
    weights; a row already held keeps the weights it was built under
    until its holder fetches a new one. With no
    demoted links every code path — including the RNG draw sequence — is
    the exact pre-quarantine one. *)

type health = Healthy | Probation | Quarantined

val probation_weight : float
(** 0.5 — a link on probation carries half its healthy sampling weight. *)

val quarantine_weight : float
(** 0.125 — the quarantined trickle. *)

val note_suspect : ctx -> int -> int -> unit
(** Quarantine the cable between adjacent vertices (both directions).
    Raises [Invalid_argument] if not adjacent. *)

val note_probation : ctx -> int -> int -> unit
(** Begin probation: the link earns back half weight while the estimator
    watches whether its loss stays low. *)

val note_recovered : ctx -> int -> int -> unit
(** Full weight restored. *)

val link_health : ctx -> int -> int -> health

val demoted_links : ctx -> int
(** Directed links currently not [Healthy]; 0 guarantees the legacy
    sampling paths. *)
