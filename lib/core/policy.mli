(** Mapping high-level allocation policies onto the stack's weight and
    priority primitives (paper §3.3.2, "Beyond per-flow fairness"):
    "Many recently proposed high-level fairness policies such as
    deadline-based or tenant-based, can be mapped onto these two
    primitives, similar to pFabric."

    Priorities are strict (0 first); weights divide capacity within a
    priority level. *)

type directive = { weight : int; priority : int }

val tenant_share : weight:int -> directive
(** Tenant-based fairness [10, 11, 30]: a tenant buying [weight] units of
    the network has each of its flows carry that weight. Raises on
    weights outside 1..255 (the broadcast packet's 8-bit field). *)

val deadline :
  size_bytes:int -> deadline_ns:int -> link_gbps:Util.Units.gbps -> directive
(** Deadline-based allocation [28, 46]: flows whose required rate
    (size/deadline) is a larger share of the link rate get a higher
    priority band (pFabric-style most-critical-first), so urgent flows
    preempt lax ones. Raises on non-positive sizes or deadlines. *)

val background : directive
(** Scavenger class: priority below every deadline band, weight 1. *)

val deadline_bands : int
(** Number of priority bands used by {!deadline}; {!background} sits
    below them. *)

val meets_deadline :
  size_bytes:int -> deadline_ns:int -> rate_gbps:Util.Units.gbps -> bool
