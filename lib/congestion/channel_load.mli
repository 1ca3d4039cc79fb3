(** Saturation-throughput analysis of routing algorithms under a traffic
    pattern — the model behind the paper's Fig. 2 table (after Dally &
    Towles).

    A pattern assigns every source a set of destinations with relative
    demands summing to 1 per node. Under routing protocol [p], the expected
    load on link [l] per unit injection is
    [gamma(l) = sum over flows of demand * fraction(l)]. With unit link
    capacity, the saturation injection rate per node is [1 / max gamma],
    and the paper's table normalizes it by the network capacity
    [2 * bisection_links / nodes]. *)

val capacity_fraction :
  Routing.ctx -> Routing.protocol -> (int * int * float) list -> Util.Units.fraction
(** [capacity_fraction ctx p flows] with [flows = (src, dst, demand) list]:
    saturation throughput as a fraction of bisection capacity — directly
    comparable to the Fig. 2 table entries. *)
