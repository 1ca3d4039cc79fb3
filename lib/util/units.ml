(* Phantom-typed physical quantities. See units.mli for the story.

   Inside this module ['u t] is transparently [float] (and [ticks] is
   [int]), which is what lets every constructor/observer be [%identity]
   and every array view be a zero-copy alias. The phantom parameter only
   exists in the interface; the compiled code is the raw float program.

   The combinators below are deliberately the *literal* formulas the
   swept call sites used to inline — same operations, same order — so
   the sweep is bit-for-bit neutral (test_util.ml pins this). *)

type +'u t = float

type byte_u
type bit_u
type ns_u
type sec_u
type frac_u

type 'u per_ns

type bytes = byte_u t
type bits = bit_u t
type byte_rate = byte_u per_ns t
type gbps = bit_u per_ns t
type ns = ns_u t
type seconds = sec_u t
type fraction = frac_u t
type ticks = int

external bytes : float -> bytes = "%identity"
external bits : float -> bits = "%identity"
external byte_rate : float -> byte_rate = "%identity"
external gbps : float -> gbps = "%identity"
external ns : float -> ns = "%identity"
external seconds : float -> seconds = "%identity"
external fraction : float -> fraction = "%identity"
external ticks : int -> ticks = "%identity"

external to_float : 'u t -> float = "%identity"
external ticks_to_int : ticks -> int = "%identity"

let ns_of_int i = float_of_int i

let rate_of ~amount ~dt = amount /. dt
let drain ~rate ~dt = rate *. dt
let fill_time ~amount ~rate = amount /. rate
let scale_by_fraction q f = q *. f
let frac_of ~num ~den = num /. den

let bits_of_bytes b = b *. 8.0
let bytes_of_bits b = b /. 8.0
let gbps_of_byte_rate r = r *. 8.0
let byte_rate_of_gbps g = g /. 8.0

let zero = 0.0
let add a b = a +. b
let sub a b = a -. b
let min_q a b = Float.min a b
let max_q a b = Float.max a b
let compare_q a b = Float.compare a b

let tick_succ (t : ticks) : ticks = t + 1

(* Zero-copy views: the annotations force the abbreviations to expand to
   the same representation; no element is touched. *)
let floats_of (a : 'u t array) : float array = a
let of_floats (a : float array) : 'u t array = a
