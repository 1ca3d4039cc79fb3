(** Idealized per-flow-queue baseline (paper §5.2, "PFQ").

    The paper's upper bound: per-flow queues with back-pressure at every
    node, which no real rack node could afford. We realize the bound as a
    fluid simulation with {e path-level} max-min allocation recomputed
    instantaneously on every flow event, zero headroom and zero control
    delay: each flow spreads over up to 8 distinct shortest paths whose
    rates fill independently, i.e. exactly the freedom that per-flow
    queuing buys. Completion times additionally include the
    store-and-forward pipeline latency of the flow's path. *)

type flow_result = {
  spec : Workload.Flowgen.spec;
  fct_ns : int;
  throughput_gbps : Util.Units.gbps;
}

val run : ?until_ns:int -> int -> Topology.t -> Workload.Flowgen.spec list -> flow_result list
(** [run seed topo specs] on the {!Topology} rack constants, spreading each
    flow over 8 paths drawn with [seed]. Results for flows that complete
    before [until_ns] (default: all). *)
