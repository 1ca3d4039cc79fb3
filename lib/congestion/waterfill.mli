(** Weighted max-min rate allocation by progressive filling (paper §3.3).

    Every flow comes with its link-fraction row ({!Routing.row}, usually
    from {!Routing.fractions}): a flow sending at rate [r] loads link [l]
    with [r *. frac]. Rows are immutable and shared: a flow and {!Inc}
    hold them by reference and never copy or write them. The allocator
    raises the fill level of all flows of the highest priority at equal
    weighted pace, freezing flows as links saturate or demands are met,
    then repeats for the next priority level with the leftover capacity
    (§3.3.2, "Beyond per-flow fairness").

    {!Inc} is the one water-filler: every caller holds one and patches or
    refills it, and {!allocate_reference} is the oracle it is tested
    against.

    A [headroom] fraction of every link's capacity is set aside to absorb
    flows that have started but are not yet globally visible (§3.3.2).

    All rates carried across this interface are {!Util.Units.byte_rate}
    (bytes/ns) — the allocator's canonical unit (DESIGN.md §10); link
    fractions and headroom are {!Util.Units.fraction}. *)

type flow = {
  id : int;  (** opaque; echoed back in results *)
  weight : float;  (** allocation weight, > 0 *)
  priority : int;  (** 0 is served first; at most 255 *)
  demand : Util.Units.byte_rate option;  (** rate cap for host-limited flows *)
  row : Routing.row;  (** the flow's link fractions, held by reference *)
}

val flow :
  ?weight:float -> ?priority:int -> ?demand:Util.Units.byte_rate -> id:int -> Routing.row -> flow
(** Convenience constructor; weight defaults to 1, priority to 0. *)

val allocate_reference :
  ?headroom:Util.Units.fraction ->
  capacities:Util.Units.byte_rate array ->
  flow array ->
  Util.Units.byte_rate array
(** [allocate_reference ~capacities flows] returns the rate of each flow,
    indexed as the input array ([id] may repeat). [capacities.(l)] is link
    [l]'s capacity in bytes/ns; [headroom] (default 0) is the capacity
    fraction left unallocated. Raises [Invalid_argument] on a headroom
    outside [\[0, 1)], a non-positive weight, a priority outside 0..255, a
    negative demand or a row with a link beyond [capacities] (the row
    itself was checked where it was built).

    Textbook progressive filling [12]: raise all rates at equal weighted
    pace, scan every link for the next saturation, repeat. Quadratic but
    obviously correct — the oracle that {!Inc} is property-tested
    against. *)

val link_utilization :
  capacities:Util.Units.byte_rate array ->
  flow array ->
  Util.Units.byte_rate array ->
  Util.Units.fraction array
(** [link_utilization ~capacities flows rates] is each link's load divided
    by its capacity; for checking feasibility in tests. *)

(** Incremental epoch recomputation (§3.3.4): the paper's "efficient
    variant of the water-filling algorithm" (§4.2).

    [Inc.t] keeps the allocator's inputs — per-flow metadata in flat
    arrays, each flow's {!Routing.row} by reference — and all
    water-filling working buffers alive across epochs. Flow
    open/close/demand/reroute events patch single entries and mark the
    state dirty; {!Inc.allocate} on a clean state returns the cached rates in
    O(1), and on a dirty state recomputes with every buffer reused, so a
    steady-state recompute allocates nothing. A recompute processes
    saturation events from a heap with lazy per-link settlement, so its
    cost is near-linear in the number of (flow, link) incidences rather
    than iterations times links. Results are property-tested against
    {!allocate_reference}. *)
module Inc : sig
  type t

  val create :
    ?headroom:Util.Units.fraction ->
    capacities:Util.Units.byte_rate array ->
    unit ->
    t
  (** Same [headroom]/[capacities] contract as {!allocate_reference};
      capacities are copied and fixed for the lifetime of the state. *)

  val add_flow :
    ?weight:float ->
    ?priority:int ->
    ?demand:Util.Units.byte_rate ->
    t ->
    id:int ->
    Routing.row ->
    unit
  (** Open a flow. [id] must be fresh, the row's links must exist ([bound]
      at most the link count), and the weight, priority and demand must
      pass {!allocate_reference}'s checks; all checked in O(1). Raises
      [Invalid_argument] otherwise. Once the per-flow
      arrays have grown, opening a flow with default [weight], [priority]
      and [demand] allocates nothing. *)

  val remove_flow : t -> id:int -> unit
  (** Close a flow; unknown ids raise. *)

  val clear : t -> unit
  (** Close every flow, keeping the buffers, the headroom and the class
      reserve. Refilled by the same {!add_flow} calls, the state computes
      bit for bit the rates of a fresh state with the same settings. *)

  val set_demand : t -> id:int -> Util.Units.byte_rate option -> unit
  (** Update a flow's demand cap ([None] = network-limited). Setting the
      value it already has keeps the state clean. *)

  val set_links : t -> id:int -> Routing.row -> unit
  (** Replace a flow's row after a routing change: one reference swap. *)

  val allocate : t -> unit
  (** Recompute rates if any event arrived since the last call; otherwise a
      no-op (the O(1) clean-epoch path — it performs no heap operation, as
      the debug counters can verify). *)

  val rate : t -> id:int -> Util.Units.byte_rate
  (** The flow's rate from the last {!allocate} (0 for flows added since). *)

  val iter_rates : t -> (id:int -> rate:Util.Units.byte_rate -> unit) -> unit
  (** Visit every live flow's last-computed rate, in unspecified order. *)

  val live_flows : t -> int
  val is_dirty : t -> bool
  val mem : t -> id:int -> bool

  val headroom : t -> Util.Units.fraction

  val set_headroom : t -> Util.Units.fraction -> unit
  (** Retune the reserved capacity fraction — the graceful-degradation knob
      under control-plane loss. Same range contract as {!create}; a changed
      value marks the state dirty, an unchanged one keeps it clean. *)

  val class_reserve : t -> int * Util.Units.fraction
  (** Current [(priority threshold, reserved fraction)]; fraction 0 when
      disabled (the default). *)

  val set_class_reserve : t -> priority:int -> reserve:Util.Units.fraction -> unit
  (** Per-class headroom reservation (overload backpressure): withhold
      [reserve] of every link's capacity from all classes with priority >=
      [priority], keeping that slice free for the classes above the
      threshold. [reserve] must be in [\[0, 1)]; 0 disables (the default —
      allocations are then bit-identical to a state without the feature).
      A changed value marks the state dirty. *)
end

(**/**)

(** Operation counters for the performance ablation. One explicit record
    rather than loose refs: it is registered [domain_local] in the lint
    ownership map (each domain will keep its own copy once the engine is
    sharded). *)
type debug_counters = {
  mutable pops : int;
  mutable valid : int;
  mutable push : int;
}

val dbg : debug_counters

val reset_debug_counters : unit -> unit
(** Zero the three counters; a dirty {!Inc.allocate} also resets them on
    entry so each measurement reports one computation. *)
