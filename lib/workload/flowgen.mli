(** Synthetic datacenter flow workloads (paper §5.2).

    The paper's canonical workload: uniformly random source/destination
    pairs, Poisson arrivals, Pareto flow sizes with shape 1.05 and mean
    100 KB — heavy-tailed so ~95% of flows are under 100 KB while most
    bytes ride in large flows. *)

type spec = {
  arrival_ns : int;
  src : int;
  dst : int;
  size : int;  (** bytes *)
  weight : int;  (** allocation weight (1 = plain fair share) *)
  priority : int;  (** 0 is highest *)
}

val check_flow : who:string -> Topology.t -> src:int -> dst:int -> size:int -> unit
(** The flow every engine can run: both endpoints are hosts, they differ,
    and [size] is positive. Raises [Invalid_argument], its message prefixed
    with [who], otherwise. Each engine calls it before a flow changes any
    state. *)

val pareto_size : Util.Rng.t -> shape:float -> mean:float -> max_size:int -> int
(** One Pareto-distributed flow size in bytes, truncated at [max_size]. *)

val poisson_pareto :
  ?max_size:int ->
  ?priority:int ->
  Topology.t ->
  Util.Rng.t ->
  flows:int ->
  mean_interarrival_ns:float ->
  spec list
(** The §5.2 workload: [flows] flows, Poisson arrivals with the given mean
    spacing, uniform random host pairs, Pareto(shape=1.05, mean=100 KB)
    sizes truncated at [max_size] (default 50 MB). Sorted by arrival.
    [priority] (default 0) tags every flow — use it to run this as the
    background class under a higher-priority foreground workload. *)

val fixed_size :
  Topology.t -> Util.Rng.t -> flows:int -> size:int -> mean_interarrival_ns:float -> spec list
(** Fig. 7 cross-validation workload: fixed-size flows, Poisson arrivals,
    uniform random pairs. *)

val permutation_long_flows :
  Topology.t -> Util.Rng.t -> load:Util.Units.fraction -> spec list
(** Fig. 18 workload: a fraction [load] of hosts each sources one
    long-running flow to a random host, with every host the source and
    destination of at most one flow. Long-running is encoded as
    [size = max_int / 2]. *)

val partition_aggregate :
  ?priority:int ->
  Topology.t ->
  Util.Rng.t ->
  aggregators:int ->
  fanout:int ->
  rounds:int ->
  round_interval_ns:int ->
  spec list
(** Partition/aggregate incast: [aggregators] hosts (a fixed random set)
    each fan a request to [fanout] distinct workers every
    [round_interval_ns], and all workers answer with a 20 KB flow
    {e simultaneously} — [rounds] synchronized response surges converging
    on each aggregator's ingress links. All
    flows carry [priority] (default 0, the most urgent class). Sorted by
    arrival; deterministic in the RNG. Raises [Invalid_argument] on an
    aggregator count outside [1, hosts], a fanout outside [1, hosts - 1],
    fewer than one round, or a negative interval. *)

val short_fraction : spec list -> threshold:int -> Util.Units.fraction
(** Fraction of flows smaller than [threshold] bytes. *)

val bytes_in_small : spec list -> threshold:int -> Util.Units.fraction
(** Fraction of payload bytes carried by flows smaller than [threshold]. *)
