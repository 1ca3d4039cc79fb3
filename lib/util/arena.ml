(* Flat int-record and int-slice pools (DESIGN.md §11). Both stores are
   Bigarrays of native ints: loads and stores never touch the OCaml heap,
   there is no write barrier, and the GC never scans them — which is the
   whole point: the packet hot path must allocate nothing per packet. *)

module A1 = Bigarray.Array1

let make_store n = A1.create Bigarray.int Bigarray.c_layout n

let grow_store store n' =
  let store' = make_store n' in
  A1.blit store (A1.sub store' 0 (A1.dim store));
  A1.fill (A1.sub store' (A1.dim store) (n' - A1.dim store)) 0;
  store'

(* -- fixed-width records ------------------------------------------------- *)

type t = {
  w : int;
  mutable store : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  mutable state : Bytes.t;  (* 0 = free, 1 = live, per record *)
  mutable cap : int;  (* record count *)
  mutable free_head : int;  (* free list chained through field 0; -1 = none *)
  mutable next_fresh : int;  (* first never-allocated record *)
  mutable live : int;
  mutable high_water : int;
}

let create ?(capacity = 256) ~width () =
  if width <= 0 then invalid_arg "Arena.create: width";
  let capacity = max 1 capacity in
  let store = make_store (capacity * width) in
  A1.fill store 0;
  {
    w = width;
    store;
    state = Bytes.make capacity '\000';
    cap = capacity;
    free_head = -1;
    next_fresh = 0;
    live = 0;
    high_water = 0;
  }

let capacity t = t.cap
let live t = t.live
let high_water t = t.high_water
let data t = t.store

let is_live t h = h >= 0 && h < t.cap && Bytes.unsafe_get t.state h = '\001'

let grow t =
  let cap' = 2 * t.cap in
  t.store <- grow_store t.store (cap' * t.w);
  let state' = Bytes.make cap' '\000' in
  Bytes.blit t.state 0 state' 0 t.cap;
  t.state <- state';
  t.cap <- cap'

let[@inline] alloc_uninit t =
  let h =
    if t.free_head >= 0 then begin
      let h = t.free_head in
      t.free_head <- A1.unsafe_get t.store (h * t.w);
      h
    end
    else begin
      if t.next_fresh = t.cap then grow t;
      let h = t.next_fresh in
      t.next_fresh <- h + 1;
      h
    end
  in
  Bytes.unsafe_set t.state h '\001';
  t.live <- t.live + 1;
  if t.live > t.high_water then t.high_water <- t.live;
  h

let alloc t =
  let h = alloc_uninit t in
  (* Explicit loop: A1.sub would allocate a descriptor on the heap. *)
  for f = h * t.w to (h * t.w) + t.w - 1 do
    A1.unsafe_set t.store f 0
  done;
  h

let[@inline] free t h =
  if h < 0 || h >= t.cap then invalid_arg "Arena.free: handle out of range";
  if Bytes.unsafe_get t.state h <> '\001' then invalid_arg "Arena.free: double free";
  Bytes.unsafe_set t.state h '\000';
  A1.unsafe_set t.store (h * t.w) t.free_head;
  t.free_head <- h;
  t.live <- t.live - 1

let get t h f = A1.unsafe_get t.store ((h * t.w) + f)
let set t h f v = A1.unsafe_set t.store ((h * t.w) + f) v

(* -- refcounted int slices ------------------------------------------------ *)

(* Block layout: [len; refcount; e0 .. e(len-1)]; the handle points at e0.
   Freed blocks go on a per-length free list chained through e0 (so only
   slices of length >= 1 are ever recycled; the empty slice is a shared
   singleton). Blocks are reused at their exact length — routes come in a
   handful of hop counts, so exact-fit lists stay short and never
   fragment. *)
module Ints = struct
  type pool = {
    mutable store : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
    mutable cap : int;  (* words *)
    mutable next_fresh : int;
    mutable heads : int array;  (* length -> free-list head handle; -1 = none *)
    mutable live : int;
  }

  let empty = 2

  let create ?(capacity = 1024) () =
    let capacity = max 16 capacity in
    let store = make_store capacity in
    A1.fill store 0;
    (* Words 0-1 are the empty slice's header: length 0, pinned. *)
    {
      store;
      cap = capacity;
      next_fresh = 2;
      (* Steady state sees one free list per distinct route length — a
         handful of hop counts even on the 8x8x8 torus; grown on demand. *)
      heads = Array.make 16 (-1);
      live = 0;
    }

  let data p = p.store
  let live p = p.live
  let length p s = A1.unsafe_get p.store (s - 2)
  let refcount p s = A1.unsafe_get p.store (s - 1)
  let get p s i = A1.unsafe_get p.store (s + i)
  let set p s i v = A1.unsafe_set p.store (s + i) v

  let ensure p words =
    let cap' = ref p.cap in
    while p.next_fresh + words > !cap' do
      cap' := 2 * !cap'
    done;
    if !cap' <> p.cap then begin
      p.store <- grow_store p.store !cap';
      p.cap <- !cap'
    end

  let alloc_block p len =
    let s = if len < Array.length p.heads then p.heads.(len) else -1 in
    if s >= 0 then begin
      p.heads.(len) <- A1.unsafe_get p.store s;
      A1.unsafe_set p.store (s - 1) 1;
      s
    end
    else begin
      ensure p (len + 2);
      let s = p.next_fresh + 2 in
      p.next_fresh <- p.next_fresh + len + 2;
      A1.unsafe_set p.store (s - 2) len;
      A1.unsafe_set p.store (s - 1) 1;
      s
    end

  let of_prefix p a len =
    if len < 0 || len > Array.length a then invalid_arg "Arena.Ints.of_prefix: length";
    if len = 0 then empty
    else begin
      let s = alloc_block p len in
      for i = 0 to len - 1 do
        A1.unsafe_set p.store (s + i) a.(i)
      done;
      p.live <- p.live + 1;
      s
    end

  let of_array p a = of_prefix p a (Array.length a)

  let[@inline] retain p s =
    if s <> empty then begin
      let rc = A1.unsafe_get p.store (s - 1) in
      if rc <= 0 then invalid_arg "Arena.Ints.retain: slice is free";
      A1.unsafe_set p.store (s - 1) (rc + 1)
    end

  let[@inline] release p s =
    if s <> empty then begin
      let rc = A1.unsafe_get p.store (s - 1) in
      if rc <= 0 then invalid_arg "Arena.Ints.release: double release";
      A1.unsafe_set p.store (s - 1) (rc - 1);
      if rc = 1 then begin
        let len = length p s in
        if len >= Array.length p.heads then begin
          let heads = Array.make (max (len + 1) (2 * Array.length p.heads)) (-1) in
          Array.blit p.heads 0 heads 0 (Array.length p.heads);
          p.heads <- heads
        end;
        A1.unsafe_set p.store s p.heads.(len);
        p.heads.(len) <- s;
        p.live <- p.live - 1
      end
    end
end
