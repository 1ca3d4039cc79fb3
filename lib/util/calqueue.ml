(* Calendar queue over int payloads: a wheel of 1-unit FIFO buckets for the
   near future, a binary heap for everything past the window. See the .mli
   for the ordering proof obligations; the invariants maintained here are

     I1  every bucketed entry satisfies win_start <= time < win_start + wheel,
         and sits in bucket (time - win_start);
     I2  every heap entry satisfies time >= win_start + wheel;
     I3  win_start is a multiple of wheel and never decreases;
     I4  the window advances only when the wheel is empty, and only to pop
         the overflow minimum at once, so win_start never passes a time
         the caller has not yet drained to.

   I1 + I2 make cross-store ties impossible; I4 plus migrating in heap
   order makes migration order-transparent. *)

type t = {
  wheel : int;
  mutable win_start : int;
  heads : int array;  (* per-bucket FIFO head payload; -1 = empty *)
  tails : int array;
  bits : int array;  (* occupancy bitmap, 32 buckets per word: the word
                        index and bit position are then shift/mask, not a
                        division by the awkward 63 (OCaml ints are 63-bit) *)
  mutable next : int array;  (* FIFO link per payload; grown on demand *)
  overflow : int Heap.t;
  mutable in_wheel : int;
  mutable cursor : int;  (* no nonempty bucket lies below this slot *)
  mutable overflow_pushes : int;
  mutable last_time : int;  (* time of the entry removed by [pop_until] *)
}

let create ?(wheel = 16384) ?(start = 0) () =
  if wheel < 1 then invalid_arg "Calqueue.create: wheel";
  {
    wheel;
    win_start = start - (start mod wheel);
    heads = Array.make wheel (-1);
    tails = Array.make wheel (-1);
    bits = Array.make ((wheel + 31) / 32) 0;
    next = Array.make 256 (-1);
    overflow = Heap.create ();
    in_wheel = 0;
    cursor = 0;
    overflow_pushes = 0;
    last_time = -1;
  }

let overflow_pushes t = t.overflow_pushes

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
  Array.unsafe_set t.next id (-1);
  if Array.unsafe_get t.heads slot < 0 then begin
    Array.unsafe_set t.heads slot id;
    let w = slot lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w lor (1 lsl (slot land 31)))
  end
  else Array.unsafe_set t.next (Array.unsafe_get t.tails slot) id;
  Array.unsafe_set t.tails slot id;
  t.in_wheel <- t.in_wheel + 1

let add t ~time id =
  if id < 0 then invalid_arg "Calqueue.add: negative payload";
  if time < t.win_start then invalid_arg "Calqueue.add: time below window";
  if id >= Array.length t.next then grow_next t id;
  let slot = time - t.win_start in
  if slot < t.wheel then begin
    (* [bucket_add], hand-inlined: this is once per scheduled event. *)
    if slot < t.cursor then t.cursor <- slot;
    Array.unsafe_set t.next id (-1);
    if Array.unsafe_get t.heads slot < 0 then begin
      Array.unsafe_set t.heads slot id;
      let w = slot lsr 5 in
      Array.unsafe_set t.bits w
        (Array.unsafe_get t.bits w lor (1 lsl (slot land 31)))
    end
    else Array.unsafe_set t.next (Array.unsafe_get t.tails slot) id;
    Array.unsafe_set t.tails slot id;
    t.in_wheel <- t.in_wheel + 1
  end
  else begin
    Heap.push t.overflow time id;
    t.overflow_pushes <- t.overflow_pushes + 1
  end

(* First nonempty bucket at or after the cursor, cached back into the
   cursor so the peek-then-pop pattern pays for one search, not two. Only
   called when in_wheel > 0, so a set bit exists. The lowest set bit is
   located with five mask tests rather than a linear bit walk — this runs
   once per event. *)
let scan t =
  let w = ref (t.cursor lsr 5) in
  let masked =
    Array.unsafe_get t.bits !w land lnot ((1 lsl (t.cursor land 31)) - 1)
  in
  let word = ref masked in
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

(* Window empty: jump it to the overflow minimum [tmin] (kept
   wheel-aligned, I3) and migrate everything now inside it, in heap order. *)
let advance t tmin =
  t.win_start <- tmin - (tmin mod t.wheel);
  t.cursor <- 0;
  let win_end = t.win_start + t.wheel in
  while
    let p = Heap.peek_prio t.overflow in
    p >= 0 && p < win_end
  do
    let id = Heap.pop_int t.overflow in
    bucket_add t (Heap.popped_prio t.overflow - t.win_start) id
  done

(* The fast group is what the engine's hot loop uses: no option, no tuple,
   so draining the queue allocates nothing. [pop_until] is the whole drain
   step in one scan — peek-then-pop would search the bitmap twice. *)
let pop_wheel t ~until =
  let slot = scan t in
  let time = t.win_start + slot in
  t.last_time <- time;
  if time > until then -2
  else begin
    let id = Array.unsafe_get t.heads slot in
    let nx = Array.unsafe_get t.next id in
    Array.unsafe_set t.heads slot nx;
    if nx < 0 then begin
      Array.unsafe_set t.tails slot (-1);
      let w = slot lsr 5 in
      Array.unsafe_set t.bits w
        (Array.unsafe_get t.bits w land lnot (1 lsl (slot land 31)))
    end;
    t.in_wheel <- t.in_wheel - 1;
    id
  end

(* An empty wheel advances only when the overflow minimum pops now: a
   window moved past [until] would reject an [add] between [until] and
   its new start, times the caller may still schedule. Entries added in
   the meantime beyond the window join the heap behind the older ones,
   and its insertion-order tie-break keeps the later migration in order. *)
let pop_until t ~until =
  if t.in_wheel > 0 then pop_wheel t ~until
  else begin
    let tmin = Heap.peek_prio t.overflow in
    if tmin < 0 then -1
    else if tmin > until then begin
      t.last_time <- tmin;
      -2
    end
    else begin
      advance t tmin;
      pop_wheel t ~until
    end
  end

let[@inline] popped_time t = t.last_time

let pop t =
  let id = pop_until t ~until:max_int in
  if id < 0 then None else Some (t.last_time, id)
