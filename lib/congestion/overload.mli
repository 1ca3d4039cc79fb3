(** Overload control shared by the simulator and the application stack:
    strict-priority admission/shedding with hysteresis, an AIMD
    backpressure pacer driven by PAUSE packets, and the loss-scaled
    headroom.

    Both machines are driven once per rate epoch and are allocation-free
    after construction. *)

(** Strict-priority load shedding. The shed floor starts above the lowest
    class (admit everything); every overloaded epoch lowers it by one class
    (lowest priority refused first, class 0 never refused), and only 3
    consecutive clean epochs raise it back — the hysteresis that keeps a
    queue oscillating around the watermark from flapping admission. *)
module Admission : sig
  type t

  val create : max_priority:int -> unit -> t
  (** [max_priority] is the numerically largest (least urgent) class in
      use. Raises [Invalid_argument] on a negative class count. *)

  val admits : t -> priority:int -> bool
  (** Would a flow of this class be admitted right now? *)

  val shed_floor : t -> int
  (** Classes with [priority >= shed_floor] are refused;
      [max_priority + 1] when nothing is shed. *)

  val shedding : t -> bool

  val note_epoch : t -> overloaded:bool -> unit
  (** Feed one rate epoch's overload verdict. *)
end

(** One sender's AIMD rate scale: PAUSE level [n] multiplies the scale by
    0.5{^n}, floored at 0.05 so a paused sender keeps probing; each clean
    epoch adds 0.1 back until the scale returns to 1. *)
module Pacer : sig
  type t

  val create : unit -> t

  val scale : t -> float
  (** Current pacing multiplier in [[0.05, 1]]. *)

  val note_pause : t -> level:int -> unit
  (** Apply a received PAUSE. Raises [Invalid_argument] on a negative
      level; level 0 is a no-op (the all-clear — recovery is additive,
      through {!note_clean_epoch}). *)

  val note_clean_epoch : t -> unit
end

(** Graceful degradation under control-packet loss, for both control
    planes: the loss EWMA (newest interval weighted 0.2) widens the
    waterfill reserve to [min cap (headroom + 2 * ewma)], so stale peer
    views overbook less while repairs are in flight. *)
module Loss_headroom : sig
  val cap : Util.Units.fraction  (** 0.30 *)

  val step :
    Waterfill.Inc.t -> headroom:Util.Units.fraction -> float -> lost:int -> sent:int -> float
  (** [step inc ~headroom e ~lost ~sent]: the estimate after an interval
      that lost [lost] of [sent] control packets ([e] itself when
      [sent = 0]), with [inc]'s headroom retuned to
      [min cap (headroom + 2 * estimate)]. *)
end
