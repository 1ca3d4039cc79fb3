(** Deterministic pseudo-random number generation.

    A small, fast, seedable generator (SplitMix64) used by every stochastic
    component of the stack so that simulations, benchmarks and tests are
    reproducible given a seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    subsequent draws from [t]. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Under [-opaque] (dune's
    dev profile) the result is boxed at every call site outside this
    module. *)

val below : t -> float -> bool
(** [below t p] is exactly [float t 1.0 < p] — a Bernoulli draw that is
    true with probability [p] — but allocates nothing. Use it for the
    per-packet loss and chaos draws. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Sample from an exponential distribution with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Sample from a Pareto distribution: P(X > x) = (scale/x)^shape for
    x >= scale. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val categorical : t -> float array -> int
(** [categorical t w] samples index [i] with probability [w.(i) / sum w].
    Weights must be non-negative with a positive sum. *)
