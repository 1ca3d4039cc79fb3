(** Declarative chaos scenarios with invariant monitors.

    A scenario is a timeline of events — every {!R2c2_sim.fault}, plus
    partitions, heals and flow surges — composed as data and executed
    against a {!R2c2_sim.t}, while {e invariant monitors} watch the run
    and fail it loudly the moment the stack violates one of its
    correctness properties. The robustness test suite and the four
    robustness benches are written in this DSL.

    Determinism: a scenario adds no RNG draws of its own, so a given
    (config seed, timeline) pair replays the exact same run — including
    under both engine backends. *)

type event =
  | Fault of R2c2_sim.fault  (** {!R2c2_sim.inject_at} at the step instant *)
  | Partition of int list
      (** cut every cable between the vertex set and the rest of the rack *)
  | Heal of int list  (** restore the cables a [Partition] of the set cut *)
  | Surge of Workload.Flowgen.spec list
      (** inject a flow burst — e.g. a {!Workload.Flowgen.partition_aggregate}
          incast — with each spec's [arrival_ns] relative to the step
          instant; flows the simulator's admission control sheds are
          counted, not started *)

type step = { at_ns : int; event : event }

(** {2 Timeline constructors} *)

val fault : at:int -> R2c2_sim.fault -> step
val partition : at:int -> int list -> step
val heal : at:int -> int list -> step
val surge : at:int -> Workload.Flowgen.spec list -> step

(** {2 Invariants} *)

type invariant =
  | Byte_conservation
      (** end check: every injected payload byte is accounted for —
          [injected = delivered + dropped + blackholed] *)
  | No_crashed_traversal
      (** continuous check (fabric arrival tap): no packet is ever
          observed arriving at — hence traversing — a node that a [Crash]
          or [Fail_node] took down and no [Restart] revived *)
  | Reconverge_within of { max_ns : int }
      (** end check: every fault-injection record reconverged (the rate
          allocation reflects the new topology) within [max_ns] of its
          detection *)
  | View_staleness of { max_ns : int; poll_ns : int }
      (** polled check: no continuous stretch of control-plane view
          divergence lasts longer than [max_ns]; also fails if views
          still disagree when the run ends *)
  | Slo_attainment of { priority : int; min_attainment : float }
      (** end check: the class's measured SLO attainment
          ({!Metrics.slo_attainment} — exact per-flow accounting, not a
          percentile estimate) is at least [min_attainment]; vacuously 1
          when the class completed no flows or has no SLO armed *)
  | Tail_latency of { priority : int; percentile : float; max_ns : int }
      (** end check: the class's FCT [percentile] read from its
          log-bucketed histogram is within [max_ns]; skipped when the
          class completed no flows *)

type report = {
  checks : int;  (** individual invariant evaluations performed *)
  violations : string list;  (** in detection order; empty on a clean run *)
  worst_staleness_ns : int;
      (** longest continuous view-divergence stretch observed by a
          [View_staleness] monitor (0 without one) *)
  end_ns : int;  (** simulation clock when the run went idle *)
}

val run :
  ?on_violation:(string -> unit) ->
  ?until_ns:int ->
  invariants:invariant list ->
  R2c2_sim.t ->
  step list ->
  report
(** Schedule every step of the timeline, install the monitors, drive the
    simulation to completion and run the end-of-run checks. Steps may be
    given in any order; same-instant events apply in list order. A fault
    {!R2c2_sim.inject_at} rejects raises here, before the run starts.

    [on_violation] fires at the moment a violation is detected, default
    [failwith] — a violated invariant kills the run loudly unless the
    caller overrides it (the tests do, to assert on collected
    violations, which are always also returned in the report). *)
