(** Classic interconnection-network traffic patterns (paper Fig. 2).

    A pattern is rendered as a list of [(src, dst, demand)] flows in which
    every host injects total demand 1, split across its destinations. *)

type t =
  | Uniform  (** every host to every other host equally *)
  | Nearest_neighbor  (** every host to each grid neighbor equally *)
  | Bit_complement  (** coordinate x -> k-1-x in every dimension *)
  | Transpose  (** (x, y, ...) -> reversed coordinates; needs equal dims *)
  | Tornado  (** x -> x + ceil(k/2) - 1 along dimension 0 *)
  | Permutation of int array  (** explicit host permutation *)

val name : t -> string

val flows : Topology.t -> t -> (int * int * float) list
(** Unit-injection flow list; self-flows are dropped. Raises
    [Invalid_argument] when the pattern does not fit the topology (e.g.
    [Transpose] on unequal dimensions). *)

val adversarial :
  ?row:(src:int -> dst:int -> Routing.row) ->
  Routing.ctx ->
  Routing.protocol ->
  tries:int ->
  seed:int ->
  (int * int * float) list * Util.Units.fraction
(** Worst-case search: evaluates structured adversaries (tornado-like
    shifts, transpose, bit-complement, diagonal shifts) plus [tries] random
    permutations and returns the pattern minimizing the protocol's
    capacity fraction, with that fraction. [row] fetches each
    candidate's rows under the protocol; by default the search holds
    every row it builds until it returns
    ({!Congestion.Channel_load.held_rows}), and a caller that evaluates
    the same pairs around it passes its own holder. *)
