(* Overload control: strict-priority admission with hysteresis, plus an
   AIMD backpressure pacer (paper §3.3.2 priorities, defended under
   offered load beyond rack capacity).

   Two small state machines share this module because both the simulator
   (lib/sim) and the application stack (lib/core) need them and lib/sim
   cannot see lib/core:

   - [Admission] turns a per-epoch overload verdict (queue occupancy above
     the high watermark somewhere) into a shed floor: the lowest priority
     class is refused first, escalating one class per overloaded epoch up
     to [max_priority], and de-escalating one class only after
     [clean_epochs_to_recover] consecutive clean epochs — hysteresis so
     recovery does not flap admission on a queue oscillating around the
     watermark.

   - [Pacer] holds one sender's multiplicative-decrease /
     additive-increase rate scale: each PAUSE level received multiplies
     the scale by [backoff]^level (clamped at [min_scale]); every clean
     epoch adds [recovery] back until the scale reaches 1. *)

module Admission = struct
  let clean_epochs_to_recover = 3

  type t = {
    max_priority : int;  (** lowest (numerically highest) class that exists *)
    mutable shed_floor : int;
        (** classes with priority >= shed_floor are refused;
            [max_priority + 1] = admit everything *)
    mutable clean_run : int;  (** consecutive clean epochs seen *)
  }

  let create ~max_priority () =
    if max_priority < 0 then invalid_arg "Overload.Admission: negative max_priority";
    { max_priority; shed_floor = max_priority + 1; clean_run = 0 }

  let shed_floor t = t.shed_floor
  let shedding t = t.shed_floor <= t.max_priority

  let admits t ~priority = priority < t.shed_floor

  (* One verdict per rate epoch. Escalation is immediate (shed one more
     class, never class 0 — the highest class is only throttled by the
     pacer, not refused); de-escalation waits out the hysteresis window. *)
  let note_epoch t ~overloaded =
    if overloaded then begin
      t.clean_run <- 0;
      if t.shed_floor > 1 then t.shed_floor <- t.shed_floor - 1
    end
    else begin
      t.clean_run <- t.clean_run + 1;
      if t.clean_run >= clean_epochs_to_recover && shedding t then begin
        t.shed_floor <- t.shed_floor + 1;
        t.clean_run <- 0
      end
    end

  let reset t =
    t.shed_floor <- t.max_priority + 1;
    t.clean_run <- 0
end

module Pacer = struct
  type t = {
    backoff : float;  (** multiplicative decrease per PAUSE level, in (0, 1) *)
    recovery : float;  (** additive increase per clean epoch, > 0 *)
    min_scale : float;  (** floor so a paused sender keeps probing, in (0, 1] *)
    mutable scale : float;  (** current pacing multiplier, [min_scale, 1] *)
  }

  let create ?(backoff = 0.5) ?(recovery = 0.1) ?(min_scale = 0.05) () =
    if not (backoff > 0.0 && backoff < 1.0) then
      invalid_arg "Overload.Pacer: backoff outside (0, 1)";
    if not (recovery > 0.0) then invalid_arg "Overload.Pacer: non-positive recovery";
    if not (min_scale > 0.0 && min_scale <= 1.0) then
      invalid_arg "Overload.Pacer: min_scale outside (0, 1]";
    { backoff; recovery; min_scale; scale = 1.0 }

  let scale t = t.scale

  (* PAUSE level n: back off n halvings at once (exponential in the level,
     so a deeply congested receiver cuts a sender down in one packet). *)
  let note_pause t ~level =
    if level < 0 then invalid_arg "Overload.Pacer: negative pause level";
    let s = ref t.scale in
    for _ = 1 to level do
      s := !s *. t.backoff
    done;
    t.scale <- Float.max t.min_scale !s

  let note_clean_epoch t = t.scale <- Float.min 1.0 (t.scale +. t.recovery)
  let reset t = t.scale <- 1.0
end

module Loss_headroom = struct
  let cap = Util.Units.fraction 0.30
  let gain = 2.0

  let ewma e ~lost ~sent = (0.8 *. e) +. (0.2 *. (float_of_int lost /. float_of_int sent))

  let effective ~headroom e =
    Float.min (cap :> float) ((headroom : Util.Units.fraction :> float) +. (gain *. e))
end
