(* Two kinds of event share one queue. A keyed event is a bare
   non-negative key handed to the single handler: the queue entry is the
   whole event, so it never touches the OCaml heap, and one pending byte
   per key catches a key scheduled twice. A closure event stores its thunk
   in a pool slot recycled through a free list. The queue holds ints whose
   low bit tells the kinds apart: [key lsl 1] or [(slot lsl 1) lor 1]. It
   is a calendar wheel by default (O(1) for the fabric's 100 ns / few-µs
   event horizon) or the original binary heap for differential testing.
   Both queues share the (time, insertion order) pop contract, so neither
   the backend nor the payload encoding can reorder a simulation.

   The wheel lives here rather than in a library module of its own: the
   dev profile compiles every module with -opaque, so a call across
   modules is never inlined and, with more than one argument, goes through
   [caml_applyN]. Every event pays an add and a pop, so both stay direct
   calls inside this compilation unit (DESIGN.md §11).

   Wheel: [wheel] 1-ns FIFO buckets over the window [win_start, win_start
   + wheel), a {!Util.Heap} for every later time. Invariants:

     I1  every bucketed entry satisfies win_start <= time < win_start + wheel,
         and sits in bucket (time - win_start);
     I2  every overflow entry satisfies time >= win_start + wheel;
     I3  win_start is a multiple of wheel and never decreases;
     I4  the window advances only when the wheel is empty, and only to pop
         the overflow minimum at once, so win_start never passes a time
         the caller has not yet drained to.

   I1 + I2 make ties across the two stores impossible; a 1-ns bucket holds
   a single time and appends at its tail; I4 plus migrating in heap order
   — (time, insertion) — makes migration order-transparent. So the wheel
   pops in (time, insertion order), exactly as the heap does. *)

type backend = Binary_heap | Calendar

let nop () = ()
let no_handler _ = invalid_arg "Engine: keyed event fired with no handler installed"

(* The window width in ns. An MTU serializes in 1.2 µs and a hop adds
   100 ns, so nearly every event lands within it; retransmission timers
   and epoch ticks overflow. At 16,000 (a multiple of 32, for [bits])
   each bucket array stays under glibc's 128 KiB mmap threshold (16,384
   would be just over it), so its cost in [create] does not depend on
   what the process freed before. *)
let wheel = 16000

type t = {
  mutable now : int;
  backend : backend;
  (* The wheel (Calendar). *)
  mutable win_start : int;
  heads : int array;  (* per-bucket FIFO head payload; -1 = empty *)
  tails : int array;
  bits : int array;  (* occupancy bitmap, 32 buckets per word: the word
                        index and bit position are then shift/mask, not a
                        division by the awkward 63 (OCaml ints are 63-bit) *)
  mutable next : int array;  (* FIFO link per payload; grown on demand *)
  overflow : int Util.Heap.t;
  mutable in_wheel : int;
  mutable cursor : int;  (* no nonempty bucket lies below this slot *)
  heap : int Util.Heap.t;  (* the whole queue under Binary_heap *)
  (* Closure pool; the free list is chained through [free_next]. *)
  mutable fns : (unit -> unit) array;
  mutable free_next : int array;
  mutable free_head : int;
  mutable next_fresh : int;
  (* '\001' while the key's event is pending. *)
  mutable keyed : Bytes.t;
  mutable count : int;
  mutable handler : int -> unit;
}

let create ?(backend = Calendar) () =
  {
    now = 0;
    backend;
    win_start = 0;
    heads = Array.make wheel (-1);
    tails = Array.make wheel (-1);
    bits = Array.make (wheel / 32) 0;
    next = Array.make 256 (-1);
    overflow = Util.Heap.create ();
    in_wheel = 0;
    cursor = 0;
    heap = Util.Heap.create ();
    fns = Array.make 256 nop;
    free_next = Array.make 256 (-1);
    free_head = -1;
    next_fresh = 0;
    keyed = Bytes.make 256 '\000';
    count = 0;
    handler = no_handler;
  }

let backend t = t.backend
let now t = t.now
let pending t = t.count
let set_handler t f = t.handler <- f

(* -- the wheel ------------------------------------------------------------ *)

let grow_next t id =
  let n = ref (Array.length t.next) in
  while id >= !n do
    n := 2 * !n
  done;
  let next' = Array.make !n (-1) in
  Array.blit t.next 0 next' 0 (Array.length t.next);
  t.next <- next'

(* Indices are in range by construction (slot < wheel, id < length next),
   so the bucket ops use unsafe accesses: this runs once per event. *)
let bucket_add t slot id =
  if slot < t.cursor then t.cursor <- slot;
  Array.unsafe_set t.next id (-1);
  if Array.unsafe_get t.heads slot < 0 then begin
    Array.unsafe_set t.heads slot id;
    let w = slot lsr 5 in
    Array.unsafe_set t.bits w (Array.unsafe_get t.bits w lor (1 lsl (slot land 31)))
  end
  else Array.unsafe_set t.next (Array.unsafe_get t.tails slot) id;
  Array.unsafe_set t.tails slot id;
  t.in_wheel <- t.in_wheel + 1

(* Callers never schedule before [now] and the window never starts past
   it (I4), so only a time that overflowed [max_int] lands below the
   window; it is refused before the unsafe writes. *)
let wheel_add t time id =
  let slot = time - t.win_start in
  if slot < 0 then invalid_arg "Engine: time below the wheel's window";
  if id >= Array.length t.next then grow_next t id;
  if slot < wheel then bucket_add t slot id else Util.Heap.push t.overflow time id

(* First nonempty bucket at or after the cursor, cached back into the
   cursor so the next pop starts there. Only called when in_wheel > 0, so
   a set bit exists. The cursor's own bucket is checked first: events
   that share a time pop from it one after another. Otherwise the lowest
   set bit is located with five mask tests rather than a linear bit
   walk. *)
let scan t =
  let c = t.cursor in
  if Array.unsafe_get t.heads c >= 0 then c
  else begin
    let w = ref (c lsr 5) in
    let word = ref (Array.unsafe_get t.bits !w land lnot ((1 lsl (c land 31)) - 1)) in
    while !word = 0 do
      incr w;
      word := Array.unsafe_get t.bits !w
    done;
    let b = ref (!word land - !word) in
    let n = ref (!w lsl 5) in
    if !b land 0xFFFF = 0 then begin
      n := !n + 16;
      b := !b lsr 16
    end;
    if !b land 0xFF = 0 then begin
      n := !n + 8;
      b := !b lsr 8
    end;
    if !b land 0xF = 0 then begin
      n := !n + 4;
      b := !b lsr 4
    end;
    if !b land 0x3 = 0 then begin
      n := !n + 2;
      b := !b lsr 2
    end;
    if !b land 0x1 = 0 then incr n;
    t.cursor <- !n;
    !n
  end

(* Wheel empty: jump the window to the overflow minimum [tmin] (kept
   wheel-aligned, I3) and migrate everything now inside it, in heap order.
   [bucket_add] lowers the cursor to the first migrated slot, [tmin]'s. *)
let advance t tmin =
  t.win_start <- tmin - (tmin mod wheel);
  t.cursor <- wheel - 1;
  let win_end = t.win_start + wheel in
  while
    let p = Util.Heap.peek_prio t.overflow in
    p >= 0 && p < win_end
  do
    let id = Util.Heap.pop_int t.overflow in
    bucket_add t (Util.Heap.popped_prio t.overflow - t.win_start) id
  done

(* Pop the wheel's minimum into [now] if its time is [<= until]. *)
let pop_wheel t until =
  let slot = scan t in
  let time = t.win_start + slot in
  if time > until then -2
  else begin
    let id = Array.unsafe_get t.heads slot in
    let nx = Array.unsafe_get t.next id in
    Array.unsafe_set t.heads slot nx;
    if nx < 0 then begin
      Array.unsafe_set t.tails slot (-1);
      let w = slot lsr 5 in
      Array.unsafe_set t.bits w (Array.unsafe_get t.bits w land lnot (1 lsl (slot land 31)))
    end;
    t.in_wheel <- t.in_wheel - 1;
    t.now <- time;
    id
  end

(* One drain step: the payload of the minimum entry, its time in [now];
   [-1] when the queue is empty, [-2] when the minimum lies past [until].
   An empty wheel advances only when the overflow minimum pops now: a
   window moved past [until] would make times between [until] and its new
   start unschedulable. Entries added in the meantime beyond the window
   join the heap behind the older ones, and its insertion-order tie-break
   keeps the later migration in order. *)
let wheel_pop t until =
  if t.in_wheel > 0 then pop_wheel t until
  else begin
    let tmin = Util.Heap.peek_prio t.overflow in
    if tmin < 0 then -1
    else if tmin > until then -2
    else begin
      advance t tmin;
      pop_wheel t until
    end
  end

(* -- scheduling ----------------------------------------------------------- *)

let enqueue t time payload =
  t.count <- t.count + 1;
  match t.backend with
  | Calendar -> wheel_add t time payload
  | Binary_heap -> Util.Heap.push t.heap time payload

let grow_pool t =
  let n = Array.length t.fns in
  let fns = Array.make (2 * n) nop and free_next = Array.make (2 * n) (-1) in
  Array.blit t.fns 0 fns 0 n;
  Array.blit t.free_next 0 free_next 0 n;
  t.fns <- fns;
  t.free_next <- free_next

let schedule t time fn =
  let id =
    if t.free_head >= 0 then begin
      let id = t.free_head in
      t.free_head <- t.free_next.(id);
      id
    end
    else begin
      if t.next_fresh = Array.length t.fns then grow_pool t;
      let id = t.next_fresh in
      t.next_fresh <- id + 1;
      id
    end
  in
  t.fns.(id) <- fn;
  enqueue t time ((id lsl 1) lor 1)

let at t time thunk =
  if time < t.now then invalid_arg "Engine.at: time in the past";
  schedule t time thunk

let after t delay thunk =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  schedule t (t.now + delay) thunk

let grow_keyed t key =
  let n = ref (Bytes.length t.keyed) in
  while key >= !n do
    n := 2 * !n
  done;
  let keyed = Bytes.make !n '\000' in
  Bytes.blit t.keyed 0 keyed 0 (Bytes.length t.keyed);
  t.keyed <- keyed

let after_key t delay key =
  if delay < 0 then invalid_arg "Engine.after_key: negative delay";
  if key < 0 then invalid_arg "Engine.after_key: negative key";
  if key >= Bytes.length t.keyed then grow_keyed t key;
  if Bytes.unsafe_get t.keyed key <> '\000' then
    invalid_arg "Engine.after_key: key already pending";
  Bytes.unsafe_set t.keyed key '\001';
  enqueue t (t.now + delay) (key lsl 1)

(* -- running -------------------------------------------------------------- *)

(* The slot or key is released before the event runs, so the event can
   schedule its successor under the same key or reuse the slot. *)
let fire t payload =
  t.count <- t.count - 1;
  let x = payload lsr 1 in
  if payload land 1 = 0 then begin
    Bytes.unsafe_set t.keyed x '\000';
    t.handler x
  end
  else begin
    let fn = t.fns.(x) in
    t.fns.(x) <- nop;
    t.free_next.(x) <- t.free_head;
    t.free_head <- x;
    fn ()
  end

(* Past the deadline the clock moves to it, but never backwards: a
   deadline before [now] leaves the clock where it is. *)
let clamp t u = if u > t.now then t.now <- u

(* Each event costs one wheel pop and no allocation; [u] folds the
   no-deadline case into [max_int]. *)
let run_calendar t u =
  let continue = ref true in
  while !continue do
    let p = wheel_pop t u in
    if p >= 0 then fire t p
    else begin
      (* [-2]: the next event lies past the deadline. [-1]: queue empty,
         clock stays on the last fired event. *)
      if p = -2 then clamp t u;
      continue := false
    end
  done

let run_heap t u =
  let continue = ref true in
  while !continue do
    match Util.Heap.peek t.heap with
    | None -> continue := false
    | Some (time, _) ->
        if time > u then begin
          clamp t u;
          continue := false
        end
        else begin
          (match Util.Heap.pop t.heap with
          | Some (time, p) ->
              t.now <- time;
              fire t p
          | None -> assert false)
        end
  done

let run ?until t =
  (* [until = Some max_int] behaves identically to no deadline: no event
     time can exceed it, so [now] is never clamped. *)
  let u = match until with Some u -> u | None -> max_int in
  match t.backend with
  | Calendar -> run_calendar t u
  | Binary_heap -> run_heap t u
