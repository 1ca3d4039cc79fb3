(** Descriptive statistics used by the metrics and bench layers. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], by linear interpolation on a
    sorted copy. Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

val cdf : float array -> (float * float) list
(** [cdf xs] returns [(value, fraction <= value)] pairs suitable for
    plotting: every [n / 50]-th sorted value (every value when [n < 100])
    and the maximum. *)

val stddev : float array -> float

type ewma
(** Exponentially weighted moving average. *)

val ewma_create : alpha:float -> ewma
val ewma_update : ewma -> float -> unit
val ewma_value : ewma -> float
(** Current average; 0 before the first update. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;  (** the tail the SLO accounting watches *)
  max : float;
  min : float;
}

val summarize : float array -> summary
(** All-zero summary on an empty array. *)
