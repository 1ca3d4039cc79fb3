(* Two kinds of event share one queue. A keyed event is a bare
   non-negative key handed to the single handler: the queue entry is the
   whole event, so it never touches the OCaml heap, and one pending byte
   per key catches a key scheduled twice. A closure event stores its thunk
   in a pool slot recycled through a free list. The queue holds ints whose
   low bit tells the kinds apart: [key lsl 1] or [(slot lsl 1) lor 1]. It
   is a calendar wheel by default (O(1) for the fabric's 100 ns / few-µs
   event horizon) or the original binary heap for differential testing.
   Both queues share the (time, insertion order) pop contract, so neither
   the backend nor the payload encoding can reorder a simulation. *)

type backend = Binary_heap | Calendar

let nop () = ()
let no_handler _ = invalid_arg "Engine: keyed event fired with no handler installed"

type t = {
  mutable now : int;
  backend : backend;
  cal : Util.Calqueue.t;
  heap : int Util.Heap.t;
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
    cal = Util.Calqueue.create ();
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

let enqueue t time payload =
  t.count <- t.count + 1;
  match t.backend with
  | Calendar -> Util.Calqueue.add t.cal ~time payload
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

(* The Calendar loop drains through the queue's int-returning [pop_until]
   so each event costs one bitmap scan and zero allocation; [u] folds the
   no-deadline case into [max_int]. *)
let run_calendar t u =
  let continue = ref true in
  while !continue do
    let p = Util.Calqueue.pop_until t.cal ~until:u in
    if p >= 0 then begin
      t.now <- Util.Calqueue.popped_time t.cal;
      fire t p
    end
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
