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

  val reset : t -> unit
end

(** One sender's AIMD rate scale: PAUSE level [n] multiplies the scale by
    [backoff]^n (floored at [min_scale]); each clean epoch adds [recovery]
    back until the scale returns to 1. *)
module Pacer : sig
  type t

  val create : ?backoff:float -> ?recovery:float -> ?min_scale:float -> unit -> t
  (** Defaults: backoff 0.5, recovery 0.1/epoch, min_scale 0.05. Raises
      [Invalid_argument] outside (0,1) / positive / (0,1] respectively. *)

  val scale : t -> float
  (** Current pacing multiplier in [[min_scale, 1]]. *)

  val note_pause : t -> level:int -> unit
  (** Apply a received PAUSE. Raises [Invalid_argument] on a negative
      level; level 0 is a no-op (the all-clear — recovery is additive,
      through {!note_clean_epoch}). *)

  val note_clean_epoch : t -> unit
  val reset : t -> unit
end

(** Graceful degradation under control-packet loss, for both control
    planes: the loss EWMA (newest interval weighted 0.2) widens the
    waterfill reserve to [min cap (headroom + 2 * ewma)], so stale peer
    views overbook less while repairs are in flight. *)
module Loss_headroom : sig
  val cap : Util.Units.fraction  (** 0.30 *)

  val ewma : float -> lost:int -> sent:int -> float
  (** The estimate after an interval that lost [lost] of [sent > 0]. *)

  val effective : headroom:Util.Units.fraction -> float -> float
end
