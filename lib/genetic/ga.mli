(** Generic genetic algorithm over fixed-length integer genotypes
    (paper §3.4).

    Genotypes are arrays of genes in [0, choices); fitness is maximized.
    Each generation keeps the elite, then fills the population with
    tournament-selected parents recombined by one-point crossover and
    mutated gene-wise. The search stops after [generations] rounds or
    [patience] generations without improvement. *)

type problem = {
  genes : int;  (** genotype length *)
  choices : int;  (** alphabet size per gene *)
  fitness : int array -> float;
}

val optimize :
  ?pop_size:int ->
  ?generations:int ->
  ?patience:int ->
  ?seeds:int array list ->
  Util.Rng.t ->
  problem ->
  init:int array ->
  int array * float
(** Defaults match the paper's §5.2 setup: population 100; every run
    mutates each gene with probability 0.01 and keeps the 5 fittest.
    [init] seeds the population (the current routing assignment), along
    with any extra [seeds] (e.g. the uniform all-one-protocol assignments,
    which guarantees the result is never worse than those baselines).
    Returns the best genotype and its fitness. *)

(** {2 Baselines (§3.4 mentions these were considered and rejected)} *)

val hill_climb : ?iterations:int -> Util.Rng.t -> problem -> init:int array -> int array * float
(** Random single-gene moves, accepted when strictly improving. *)

val simulated_annealing :
  ?iterations:int -> Util.Rng.t -> problem -> init:int array -> int array * float
(** Starts at temperature 1 and cools by a factor of 0.99 per iteration. *)

val random_search : ?iterations:int -> Util.Rng.t -> problem -> int array * float
