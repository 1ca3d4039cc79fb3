(** Control-traffic comparison: decentralized broadcast vs a centralized
    controller (paper §5.2, Fig. 19).

    Decentralized (R2C2): every flow arrival or departure is broadcast to
    all vertices — a fixed [16 * (vertices - 1)] wire bytes per event,
    independent of how many flows exist.

    Centralized (Fastpass-like): the source unicasts the event to the
    controller, which recomputes all rates and unicasts to every server
    sourcing flows a message carrying the new rates for its own flows
    (16-byte header + 4 bytes per flow). Wire bytes therefore grow with
    the number of concurrent flows per server. *)

val decentralized_event_bytes : Topology.t -> Util.Units.bytes
(** Wire bytes per flow event under broadcast. *)

val centralized_event_bytes : Topology.t -> flows_per_server:int -> Util.Units.bytes
(** Wire bytes per flow event with the controller at host 0:
    event unicast to the controller plus per-source rate-update unicasts,
    each weighted by its hop distance. *)

val ratio : Topology.t -> flows_per_server:int -> float
(** centralized / decentralized — the paper reports 6.2x at one flow per
    server and 19.9x at ten. *)
