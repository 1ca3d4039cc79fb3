(** Flow-level fluid emulation: the repository's one fluid engine.

    This is the repository's stand-in for the paper's Maze rack-emulation
    platform (§4.1): an independent second engine that runs the same
    control plane — flow-level water-filling with headroom, periodic
    recomputation, line-rate transmission of not-yet-scheduled flows — but
    integrates flow progress as a fluid instead of moving packets. The
    packet simulator and this emulator are cross-validated against each
    other (paper Fig. 7). The same event loop also computes the idealized
    per-flow-queue bound (paper §5.2, "PFQ"): see {!run_pfq}.

    A flow is one or more sub-flows that water-fill independently, and its
    rate is their sum: an R2C2 flow has one sub-flow over its
    {!Routing.fractions}, a PFQ flow one per path. Per-link queue depth is
    estimated by integrating over-subscription: while the fluid load on a
    link exceeds its capacity the queue grows at the difference, and drains
    at the spare capacity otherwise. *)

type config = {
  link_gbps : Util.Units.gbps;
  headroom : Util.Units.fraction;
  recompute_interval_ns : int;  (** 0 = recompute on every flow event (the ideal) *)
  seed : int;
}

val default_config : config
(** Matches {!Sim.R2c2_sim.default_config}: the {!Topology} link speed and
    headroom, rho = 500 µs. Every run uses the {!Topology} hop latency and
    MTU. *)

type flow_result = {
  index : int;
      (** the flow's position in the input spec list, counted from 0: the
          key that pairs two runs' results for the same flow *)
  spec : Workload.Flowgen.spec;
  fct_ns : int;
  avg_rate_gbps : Util.Units.gbps;
      (** size / (completion - arrival), header-less *)
}

type result = {
  flows : flow_result list;
  max_queue_bytes : Util.Units.bytes array;  (** per-link peak of the queue estimate *)
  recomputes : int;
}

val run :
  ?protocol_of:(int -> Workload.Flowgen.spec -> Routing.protocol) ->
  ?until_ns:int ->
  config ->
  Topology.t ->
  Workload.Flowgen.spec list ->
  result
(** Raises [Invalid_argument], before the run starts, for a spec
    {!Workload.Flowgen.check_flow} refuses or one whose weight or priority
    a flow broadcast could not carry: a weight outside 1..255 or a
    priority outside 0..255, the bounds {!Sim.R2c2_sim.start_flow}
    enforces. *)

val run_pfq : ?until_ns:int -> int -> Topology.t -> Workload.Flowgen.spec list -> result
(** The paper's idealized per-flow-queue upper bound (§5.2, "PFQ"):
    per-flow queues with back-pressure at every node, which no real rack
    node could afford. [run_pfq seed topo specs] spreads each flow over up
    to 8 distinct shortest paths drawn with [seed], one weight-1 sub-flow
    per path whose rates fill independently — exactly the freedom that
    per-flow queuing buys. Rates are recomputed on every flow event, with
    zero headroom, zero control delay and the {!Topology} link speed.
    Completion times include the store-and-forward pipeline latency of the
    flow's path, as in {!run}. Results for flows that complete before
    [until_ns] (default: all). Raises [Invalid_argument], before the run
    starts, for a spec {!Workload.Flowgen.check_flow} refuses. *)

val rate_error :
  ?protocol_of:(int -> Workload.Flowgen.spec -> Routing.protocol) ->
  ?min_lifetime_ns:int ->
  config ->
  Topology.t ->
  Workload.Flowgen.spec list ->
  rho_ns:int ->
  float array
(** Paper Fig. 15/16: per-flow normalized difference
    [|rate(rho) - rate(0)| / rate(0)] between average rates under periodic
    recomputation at [rho_ns] and the every-event ideal. Only flows whose
    ideal completion time is at least [min_lifetime_ns] (default [rho_ns])
    are compared — the batched design never rate-limits shorter flows
    (§3.3.2); pass a fixed value when sweeping [rho_ns] so every point
    measures the same flow population. The two runs' results are paired by
    {!flow_result.index}. *)
