(** Per-flow routing-protocol selection maximizing rack utility (paper
    §3.4, evaluated in Fig. 18).

    §3.4: "Example utility metrics include the rack's aggregate throughput
    or the tail throughput, as measured across tenants or even across jobs
    and application tasks." All three are provided; the selector encodes
    one gene per flow and searches protocol assignments with the genetic
    algorithm, seeding the uniform single-protocol assignments so the
    result is never below those baselines. *)

type utility =
  | Aggregate_throughput  (** sum of allocated rates *)
  | Tail_throughput  (** minimum allocated flow rate *)
  | Tenant_tail of int array
      (** minimum over tenants of the tenant's summed rate; the array maps
          each flow index to its tenant *)

type t

val make :
  ?headroom:Util.Units.fraction -> ?utility:utility -> Routing.ctx -> link_gbps:Util.Units.gbps -> t
(** A selector between RPS and VLB, the two protocols the paper's Fig. 18
    experiment selects between; [utility] defaults to
    [Aggregate_throughput]. *)

val aggregate_throughput_gbps :
  t -> flows:(int * int) array -> Routing.protocol array -> Util.Units.gbps
(** Sum of allocated rates under one assignment, regardless of the
    configured utility. *)

val utility_gbps :
  t -> flows:(int * int) array -> Routing.protocol array -> Util.Units.gbps
(** The configured utility of one assignment for the given (src, dst)
    flows. Raises [Invalid_argument] if a [Tenant_tail] map has the wrong
    length. *)

val uniform : t -> flows:(int * int) array -> Routing.protocol -> Util.Units.gbps
(** Utility when every flow uses the same protocol (the RPS/VLB
    baselines). *)

val random_assignment : t -> Util.Rng.t -> flows:(int * int) array -> Routing.protocol array

val select :
  ?pop_size:int ->
  ?generations:int ->
  t ->
  Util.Rng.t ->
  flows:(int * int) array ->
  init:Routing.protocol array ->
  Routing.protocol array * Util.Units.gbps
(** {!Ga.optimize} search (population 100 by default) seeded with the
    current assignment and the uniform assignments; returns the best
    assignment and its utility. *)
