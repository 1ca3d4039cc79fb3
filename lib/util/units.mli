(** Dimensional analysis for the data plane (DESIGN.md §10).

    Every headline number this reproduction produces — waterfill rates,
    token-bucket drains, control-overhead accounting — is physically
    dimensioned, and a single Gbps-vs-bytes-per-ns slip silently
    invalidates a whole benchmark trajectory without failing any test.
    This module makes the compiler guard that bookkeeping: each physical
    quantity is a {e phantom-typed} wrapper around [float] (or [int] for
    discrete counters), so mixing units is a type error, while the
    representation stays exactly the raw number — constructors and
    observers are [%identity] externals, wrappers are [private]
    abbreviations, and arrays of quantities are flat float arrays. Hot
    paths stay allocation-free and bit-for-bit identical to the unwrapped
    formulas.

    {b Canonical units} (every boundary that carries one of these
    dimensions uses exactly this unit):
    - data amounts: {!type-bytes} (bytes) and {!type-bits} (bits);
    - rates: ['u] {!per_ns} — {!byte_rate} (bytes/ns ≡ GB/s, the
      allocator's unit) and {!type-gbps} (bits/ns ≡ Gbps, the user-facing
      unit). The two differ by exactly the factor 8 that
      {!byte_rate_of_gbps}/{!gbps_of_byte_rate} apply;
    - durations: {!type-ns} (float nanoseconds — the engine clock's unit;
      integer engine timestamps stay [int] ns) and {!type-seconds}
      (wall-clock scale, bench-side only);
    - dimensionless shares in [[0, 1]]: {!type-fraction} (link-rate
      fractions, headroom, loss probabilities);
    - discrete counters: {!type-ticks} (rate epochs, rounds).

    The only legal cross-unit operations are the named combinators below;
    same-unit algebra goes through the generic helpers. Internal math may
    unwrap with {!to_float} at a function boundary and work on locals —
    but r2c2-lint rule U2 rejects arithmetic {e directly} on a
    [to_float] application, and U1 rejects raw float literals flowing
    into unit-typed labeled arguments without a constructor. *)

type +'u t = private float
(** A quantity of dimension ['u]. The representation {e is} the raw
    float (no box, no tag); only the type layer distinguishes units. *)

(** {2 Dimension tags} *)

type byte_u
type bit_u
type ns_u
type sec_u
type frac_u

type 'u per_ns
(** Rate dimension constructor: ['u per_ns t] is ['u] per nanosecond. *)

(** {2 The quantity types} *)

type bytes = byte_u t
(** A byte count (payload sizes, queue depths, wire-byte totals). *)

type bits = bit_u t
(** A bit count. *)

type byte_rate = byte_u per_ns t
(** Bytes per nanosecond (≡ GB/s): the waterfill allocator's rate unit.
    A 10 Gbps link is [byte_rate 1.25]. *)

type gbps = bit_u per_ns t
(** Bits per nanosecond (≡ Gbps): the user-facing rate unit of configs,
    allocations and reports. *)

type ns = ns_u t
(** A duration in float nanoseconds (demand-estimation periods, pacing
    gaps). Engine timestamps remain [int] nanoseconds. *)

type seconds = sec_u t
(** A duration in seconds — wall-clock accounting on the bench side. *)

type fraction = frac_u t
(** A dimensionless share, by convention in [[0, 1]]: routing link-rate
    fractions, capacity headroom, loss probabilities. Range is {e not}
    checked — consumers keep their own contracts. *)

type ticks = private int
(** A discrete counter: rate-computation epochs, anti-entropy rounds. *)

(** {2 Constructors and observers}

    All [%identity]: wrapping asserts the unit, it never transforms the
    number. *)

external bytes : float -> bytes = "%identity"
external bits : float -> bits = "%identity"
external byte_rate : float -> byte_rate = "%identity"
external gbps : float -> gbps = "%identity"
external ns : float -> ns = "%identity"
external seconds : float -> seconds = "%identity"
external fraction : float -> fraction = "%identity"
external ticks : int -> ticks = "%identity"

external to_float : 'u t -> float = "%identity"
(** The single unwrapping observer. Bind the result to a local before
    doing arithmetic — lint rule U2 flags operators applied directly to a
    [to_float] application outside this module. *)

external ticks_to_int : ticks -> int = "%identity"

val ns_of_int : int -> ns
(** [float_of_int] then {!ns} — for engine timestamps entering rate
    math. *)

(** {2 Cross-unit combinators}

    Each is exactly its raw-float formula (property-tested bit-for-bit
    in [test_util.ml]); the type says which mixings are legal. *)

val rate_of : amount:'u t -> dt:ns -> 'u per_ns t
(** [rate_of ~amount ~dt] is [amount /. dt] — e.g. queued bytes over an
    observation period is a {!byte_rate}. *)

val drain : rate:'u per_ns t -> dt:ns -> 'u t
(** [drain ~rate ~dt] is [rate *. dt]: the amount a token bucket drains
    in [dt]. *)

val fill_time : amount:'u t -> rate:'u per_ns t -> ns
(** [fill_time ~amount ~rate] is [amount /. rate]: serialization /
    pacing time. *)

val scale_by_fraction : 'u t -> fraction -> 'u t
(** [scale_by_fraction q f] is [q *. f] — the unit survives scaling by a
    dimensionless share (headroom, link fraction). *)

val frac_of : num:'u t -> den:'u t -> fraction
(** [frac_of ~num ~den] is [num /. den]: the dimensionless ratio of two
    same-unit quantities (utilization, goodput retention). *)

val bits_of_bytes : bytes -> bits
(** [*. 8.0] *)

val bytes_of_bits : bits -> bytes
(** [/. 8.0] *)

val gbps_of_byte_rate : byte_rate -> gbps
(** [*. 8.0] — bytes/ns to Gbps, the conversion the whole API boundary
    pivots on. *)

val byte_rate_of_gbps : gbps -> byte_rate
(** [/. 8.0] *)

(** {2 Same-unit algebra} *)

val zero : 'u t
val add : 'u t -> 'u t -> 'u t
val sub : 'u t -> 'u t -> 'u t
val min_q : 'u t -> 'u t -> 'u t
val max_q : 'u t -> 'u t -> 'u t

val compare_q : 'u t -> 'u t -> int
(** [Float.compare] on the raw numbers (total, NaN-safe — lint rule S2
    compliant). *)

val tick_succ : ticks -> ticks

(** {2 Zero-copy array views}

    Inside this module a ['u t array] {e is} a [float array], so these
    are aliases, not copies — mutating one view mutates the other. They
    exist so boundary code can hand a typed array to unwrapped internal
    math (or bless a freshly computed one) without a per-element pass.
    Blessing ([of_floats]) asserts the unit of every element; keep it at
    module boundaries. *)

val floats_of : 'u t array -> float array
val of_floats : float array -> 'u t array
