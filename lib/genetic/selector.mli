(** Per-flow routing-protocol selection maximizing the rack's aggregate
    throughput (paper §3.4, evaluated in Fig. 18).

    The selector encodes one gene per flow and searches protocol
    assignments with the genetic algorithm, seeding the uniform
    single-protocol assignments so the result is never below those
    baselines. {!reselect} is §3.4's rerouting rule, the one both the
    simulator and the library stack apply: move flows only if the search
    beats the current assignment by more than 1%. *)

type t

val make : ?headroom:Util.Units.fraction -> Routing.ctx -> link_gbps:Util.Units.gbps -> t
(** A selector between RPS and VLB, the two protocols the paper's Fig. 18
    experiment selects between. It owns one {!Congestion.Waterfill.Inc}
    that every evaluation clears and refills, so one selector serves one
    caller at a time. *)

val aggregate_throughput_gbps :
  t -> flows:(int * int) array -> Routing.protocol array -> Util.Units.gbps
(** Sum of allocated rates under one assignment for the given (src, dst)
    flows, in slot order: bit for bit 8 × the sum of the rates of a fresh
    {!Congestion.Waterfill.Inc} that holds flow [i] as id [i]. Raises
    [Invalid_argument] on an assignment of another length. A one-shot
    evaluation: it fetches every row afresh, and a caller evaluating one
    flow set repeatedly holds an {!evaluator} instead. *)

type evaluator
(** One flow set under evaluation: it fetches flow [i]'s row under a
    protocol on the first evaluation that needs it and holds it for as
    long as the evaluator lives, so a search builds each (flow, protocol)
    row at most once. It evaluates through its selector's allocator, so
    it serves one caller at a time, and it holds rows built for the
    topology and link health of their first use. *)

val evaluator : t -> flows:(int * int) array -> evaluator

val evaluate : evaluator -> Routing.protocol array -> Util.Units.gbps
(** {!aggregate_throughput_gbps} of the evaluator's flows, bit for bit,
    from the rows it holds. *)

val uniform : t -> flows:(int * int) array -> Routing.protocol -> Util.Units.gbps
(** Aggregate throughput when every flow uses the same protocol (the
    RPS/VLB baselines). *)

val random_assignment : t -> Util.Rng.t -> flows:(int * int) array -> Routing.protocol array

val select :
  ?pop_size:int ->
  ?generations:int ->
  t ->
  Util.Rng.t ->
  flows:(int * int) array ->
  init:Routing.protocol array ->
  Routing.protocol array * Util.Units.gbps
(** {!Ga.optimize} search (population 100 and 30 generations by default)
    seeded with the current assignment and the uniform assignments;
    returns the best assignment and its aggregate throughput. Every
    fitness evaluation goes through one {!evaluator} of [flows]. *)

val reselect :
  ?pop_size:int ->
  ?generations:int ->
  t ->
  Util.Rng.t ->
  flows:(int * int) array ->
  current:Routing.protocol array ->
  Routing.protocol array option
(** §3.4's rerouting decision for flows now routed with [current]: a
    protocol outside RPS and VLB seeds the search as RPS, {!select} runs
    with the given budget, and its assignment is returned only if it beats
    the seeded assignment's aggregate throughput by more than 1% ("only if
    a significant improvement is possible"); [None] keeps every flow where
    it is. The seeded assignment's evaluation and the search share one
    {!evaluator}. *)
