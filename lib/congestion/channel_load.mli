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
  ?row:(src:int -> dst:int -> Routing.row) ->
  Routing.ctx ->
  Routing.protocol ->
  (int * int * float) list ->
  Util.Units.fraction
(** [capacity_fraction ctx p flows] with [flows = (src, dst, demand) list]:
    saturation throughput as a fraction of bisection capacity — directly
    comparable to the Fig. 2 table entries. [row] fetches each flow's row
    under [p], {!Routing.fractions} by default; a search over many
    patterns passes one that holds the rows it has already built. *)

val held_rows : Routing.ctx -> Routing.protocol -> src:int -> dst:int -> Routing.row
(** [held_rows ctx p] is a fresh row fetcher for a search: it builds each
    (src, dst) row under [p] on first use and holds it for as long as the
    fetcher lives, so a search over patterns that share pairs builds each
    row once. Apply it to [ctx] and [p] once per search and pass the
    result as [row]: every application makes a new, empty holder. *)
