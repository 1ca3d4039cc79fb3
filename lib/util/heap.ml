(* Binary min-heap over (priority, sequence, value), stored as three
   parallel arrays so pushing allocates nothing (no per-entry record). The
   sequence number breaks ties so equal-priority entries pop in insertion
   order. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable last_prio : int;
}

let create () =
  { prio = [||]; seq = [||]; vals = [||]; len = 0; next_seq = 0; last_prio = -1 }

let size h = h.len

let is_empty h = h.len = 0

let less h i j =
  h.prio.(i) < h.prio.(j) || (h.prio.(i) = h.prio.(j) && h.seq.(i) < h.seq.(j))

let swap h i j =
  let t = h.prio.(i) in
  h.prio.(i) <- h.prio.(j);
  h.prio.(j) <- t;
  let t = h.seq.(i) in
  h.seq.(i) <- h.seq.(j);
  h.seq.(j) <- t;
  let t = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- t

(* [value] doubles as the fill element for the value array, so growth
   never needs a dummy. *)
let grow h value =
  let cap = Array.length h.prio in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let copy a fill =
      let a' = Array.make ncap fill in
      Array.blit a 0 a' 0 h.len;
      a'
    in
    h.prio <- copy h.prio 0;
    h.seq <- copy h.seq 0;
    h.vals <- copy h.vals value
  end

let push h prio value =
  grow h value;
  let i = ref h.len in
  h.prio.(!i) <- prio;
  h.seq.(!i) <- h.next_seq;
  h.vals.(!i) <- value;
  h.next_seq <- h.next_seq + 1;
  h.len <- h.len + 1;
  (* Sift up. *)
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less h !i p
  do
    let p = (!i - 1) / 2 in
    swap h !i p;
    i := p
  done

let remove_top h =
  h.len <- h.len - 1;
  if h.len > 0 then begin
    swap h 0 h.len;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && less h l !smallest then smallest := l;
      if r < h.len && less h r !smallest then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done
  end

let pop h =
  if h.len = 0 then None
  else begin
    let prio = h.prio.(0) and value = h.vals.(0) in
    h.last_prio <- prio;
    remove_top h;
    Some (prio, value)
  end

let peek h = if h.len = 0 then None else Some (h.prio.(0), h.vals.(0))

let peek_prio h = if h.len = 0 then -1 else h.prio.(0)

let pop_int (h : int t) =
  if h.len = 0 then -1
  else begin
    let value = h.vals.(0) in
    h.last_prio <- h.prio.(0);
    remove_top h;
    value
  end

let popped_prio h = h.last_prio
