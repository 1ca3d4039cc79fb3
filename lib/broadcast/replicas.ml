(* One table for every receive window and believed flow set of a rack, or
   of a single library replica. Pure data structure: timers, packets and
   the origin side ([Rbcast]) stay with the caller. Windows are laid out
   origin-major, [((origin * trees) + tree) * replicas + replica], so one
   flood, an (origin, tree) stream reaching every replica, touches
   neighbouring words; each window also indexes the set hash of the flows
   its replica believes on its tree. *)

type t = {
  replicas : int;
  origins : int;
  trees : int;
  (* Window columns; empty until first use, because on a rack-wide table
     each one is a large major-heap block. *)
  mutable next : int array;  (* next expected sequence number *)
  mutable hi : int array;  (* highest sequence heard of; -1 = none *)
  mutable inc : int array;  (* origin incarnation the window is keyed to *)
  mutable armed : Bytes.t;  (* the caller's repair-timer latch *)
  mutable dups : int array;  (* per replica: duplicates absorbed *)
  buffer : int Util.Itbl.t;
      (* out-of-order events, keyed [seq * windows + window]; a window's
         buffered events all lie in its [next + 1 .. hi] *)
  (* Believed sets, stored flow-major: a flow that any replica believes
     holds one slot. The columns are empty until first use. *)
  slot_of : int Util.Itbl.t;  (* flow id -> its slot *)
  mutable ids : int array;  (* per slot: its flow *)
  mutable holders : int array;  (* per slot: how many replicas believe it; 0 = free *)
  mutable wins : int array;
      (* per (slot, replica), at [slot * replicas + replica]: 0 when the
         replica does not believe the flow, else 1 + the (origin, tree)
         offset [w / replicas] of the window it was added on *)
  mutable free : int array;  (* the free slots, a stack [nfree] deep *)
  mutable nfree : int;
  mutable top_id : int;  (* no slotted flow's id is above it *)
  mutable hashes : int array;  (* per window: set hash of the flows on its tree *)
  mutable sizes : int array;  (* per (origin, replica): the slice's size *)
  mutable totals : int array;  (* per replica: the set hash of its whole set *)
}

let create ~replicas ~origins ~trees =
  if replicas < 1 || origins < 1 || trees < 1 then invalid_arg "Replicas.create";
  { replicas; origins; trees; next = [||]; hi = [||]; inc = [||]; armed = Bytes.empty;
    dups = [||]; buffer = Util.Itbl.create 16; slot_of = Util.Itbl.create 32; ids = [||];
    holders = [||]; wins = [||]; free = [||]; nfree = 0; top_id = -1; hashes = [||];
    sizes = [||]; totals = [||] }

let id_hash = Util.Itbl.hash

let event e flow =
  match e with
  | Wire.Flow_finish -> (2 * flow) + 1
  | Wire.Flow_start | Wire.Demand_update | Wire.Route_change -> 2 * flow

let windows t = t.replicas * t.origins * t.trees
let window t ~replica ~origin ~tree = (((origin * t.trees) + tree) * t.replicas) + replica
let key t w seq = (seq * windows t) + w
let replica_of t w = w mod t.replicas

(* Before first use every window and slice reads as a fresh one. *)
let read col i ~fresh = if Array.length col = 0 then fresh else col.(i)
let next_expected t w = read t.next w ~fresh:0
let highest_heard t w = read t.hi w ~fresh:(-1)
let incarnation t w = read t.inc w ~fresh:0
let tree_hash t w = read t.hashes w ~fresh:0
let size t ~replica ~origin = read t.sizes ((origin * t.replicas) + replica) ~fresh:0
let replica_hash t ~replica = read t.totals replica ~fresh:0
let duplicates t = Array.fold_left ( + ) 0 t.dups

let ensure_windows t =
  if Array.length t.next = 0 then begin
    let n = windows t in
    t.next <- Array.make n 0;
    t.hi <- Array.make n (-1);
    t.inc <- Array.make n 0;
    t.armed <- Bytes.make n '\000';
    t.dups <- Array.make t.replicas 0
  end

(* -- receive windows ------------------------------------------------------- *)

let drop_buffered t w ~below =
  for s = t.next.(w) + 1 to min (below - 1) t.hi.(w) do
    Util.Itbl.remove t.buffer (key t w s)
  done

let reset t w ~inc =
  drop_buffered t w ~below:max_int;
  t.next.(w) <- 0;
  t.hi.(w) <- -1;
  t.inc.(w) <- inc;
  Bytes.set t.armed w '\000'

let rekey t w ~inc = inc > incarnation t w && (ensure_windows t; reset t w ~inc; true)

let admit t w ~inc =
  ignore (rekey t w ~inc);
  inc >= incarnation t w

type receipt = Delivered | Duplicate | Buffered

(* Buffered events all lie in [next + 1 .. hi], so a window whose highest
   heard is at most its next expected has none and skips the buffer. *)
let rec drain t w ~deliver =
  let s = t.next.(w) in
  if s <= t.hi.(w) then
    match Util.Itbl.find t.buffer (key t w s) with
    | ev ->
        Util.Itbl.remove t.buffer (key t w s);
        t.next.(w) <- s + 1;
        deliver w ev;
        drain t w ~deliver
    | exception Not_found -> ()

let receive t w ~seq ev ~deliver =
  if seq < 0 then invalid_arg "Replicas.receive: negative seq";
  ensure_windows t;
  let next = t.next.(w) and hi = t.hi.(w) in
  if seq > hi then t.hi.(w) <- seq;
  if seq < next || (seq > next && seq <= hi && Util.Itbl.mem t.buffer (key t w seq)) then begin
    let r = replica_of t w in
    t.dups.(r) <- t.dups.(r) + 1;
    Duplicate
  end
  else if seq = next then begin
    t.next.(w) <- next + 1;
    deliver w ev;
    drain t w ~deliver;
    Delivered
  end
  else begin
    Util.Itbl.replace t.buffer (key t w seq) ev;
    Buffered
  end

let missing t w =
  let upto = highest_heard t w in
  let out = ref [] and from = ref (-1) in
  for s = next_expected t w to upto do
    if Util.Itbl.mem t.buffer (key t w s) then begin
      if !from >= 0 then out := (!from, s - 1) :: !out;
      from := -1
    end
    else if !from < 0 then from := s
  done;
  if !from >= 0 then out := (!from, upto) :: !out;
  List.rev !out

let caught_up t ~replica ~origin =
  let ok = ref true in
  for tree = 0 to t.trees - 1 do
    let w = window t ~replica ~origin ~tree in
    if next_expected t w <= highest_heard t w then ok := false
  done;
  !ok

let arm t w =
  ensure_windows t;
  Bytes.get t.armed w = '\000' && (Bytes.set t.armed w '\001'; true)

let disarm t w = if Array.length t.next > 0 then Bytes.set t.armed w '\000'

(* -- believed sets --------------------------------------------------------- *)

(* Double the slot capacity, the new slots going on the free stack lowest
   on top. Only a full table grows, so the stack is empty here. *)
let grow t =
  let cap = Array.length t.ids in
  let cap' = max 8 (2 * cap) in
  let extend a n =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.ids <- extend t.ids cap';
  t.holders <- extend t.holders cap';
  t.wins <- extend t.wins (cap' * t.replicas);
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.nfree <- cap' - cap

let ensure_sets t =
  if Array.length t.hashes = 0 then begin
    t.hashes <- Array.make (windows t) 0;
    t.sizes <- Array.make (t.origins * t.replicas) 0;
    t.totals <- Array.make t.replicas 0;
    grow t
  end

let new_slot t id =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  Util.Itbl.replace t.slot_of id s;
  t.ids.(s) <- id;
  if id > t.top_id then t.top_id <- id;
  s

(* A lookup that misses raises, which costs more than the lookup, so a
   flow above every id slotted so far, as a newly started one usually
   is, skips it. *)
let slot t id =
  if id > t.top_id then new_slot t id
  else match Util.Itbl.find t.slot_of id with s -> s | exception Not_found -> new_slot t id

(* A replica stops believing the flow in slot [s]: free the slot when it
   was the last. The caller fixes the hashes and sizes. *)
let drop t s i =
  t.wins.(i) <- 0;
  t.holders.(s) <- t.holders.(s) - 1;
  if t.holders.(s) = 0 then begin
    Util.Itbl.remove t.slot_of t.ids.(s);
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  end

(* Count flow [id] in ([sign] 1) or out (-1) of replica [r]'s hashes and
   size, on its window at (origin, tree) offset [ot]. *)
let account t ~ot ~r id sign =
  let w = (ot * t.replicas) + r and h = sign * id_hash id in
  let row = (ot / t.trees * t.replicas) + r in
  t.hashes.(w) <- t.hashes.(w) + h;
  t.totals.(r) <- t.totals.(r) + h;
  t.sizes.(row) <- t.sizes.(row) + sign

let believe t ~ot ~r id =
  ensure_sets t;
  let s = slot t id in
  let i = (s * t.replicas) + r in
  if t.wins.(i) = 0 then begin
    t.wins.(i) <- 1 + ot;
    t.holders.(s) <- t.holders.(s) + 1;
    account t ~ot ~r id 1
  end

(* One division splits a window into its (origin, tree) offset and replica. *)
let add t w id =
  let ot = w / t.replicas in
  believe t ~ot ~r:(w - (ot * t.replicas)) id

let remove t ~replica id =
  match Util.Itbl.find t.slot_of id with
  | s ->
      let i = (s * t.replicas) + replica in
      let ot = t.wins.(i) - 1 in
      if ot >= 0 then begin
        drop t s i;
        account t ~ot ~r:replica id (-1)
      end
  | exception Not_found -> ()

let apply t w ev =
  if ev >= 0 then begin
    let ot = w / t.replicas in
    let r = w - (ot * t.replicas) in
    if ev land 1 = 0 then believe t ~ot ~r (ev lsr 1) else remove t ~replica:r (ev lsr 1)
  end

(* Drop every flow the replica believes on an origin [keep] refuses, by
   walking the slots; the caller zeroes the hashes and sizes. *)
let drop_where t ~replica keep =
  for s = 0 to Array.length t.ids - 1 do
    let i = (s * t.replicas) + replica in
    let v = t.wins.(i) in
    if v > 0 && not (keep ((v - 1) / t.trees)) then drop t s i
  done

let believed t ~replica =
  let n = ref 0 in
  for origin = 0 to t.origins - 1 do
    n := !n + size t ~replica ~origin
  done;
  let out = Array.make !n 0 and k = ref 0 in
  if !n > 0 then
    for s = 0 to Array.length t.ids - 1 do
      if t.wins.((s * t.replicas) + replica) > 0 then begin
        out.(!k) <- t.ids.(s);
        incr k
      end
    done;
  Array.sort Int.compare out;
  out

let hash t ~replica ~origin =
  let h = ref 0 in
  for tree = 0 to t.trees - 1 do
    h := !h + tree_hash t (window t ~replica ~origin ~tree)
  done;
  !h

let clear_slice t ~replica ~origin =
  if size t ~replica ~origin > 0 then begin
    t.totals.(replica) <- t.totals.(replica) - hash t ~replica ~origin;
    drop_where t ~replica (fun o -> o <> origin);
    for tree = 0 to t.trees - 1 do
      t.hashes.(window t ~replica ~origin ~tree) <- 0
    done;
    t.sizes.((origin * t.replicas) + replica) <- 0
  end

(* -- anti-entropy and membership ------------------------------------------- *)

type verdict = Synced | Gaps | Diverged

(* Every event of a flow rides one tree, so a window at [last_seq + 1] has
   applied exactly the events behind the digest's tree hash: a mismatch
   there is divergence, whatever the origin's other trees carry. *)
let observe_digest t w ~epoch ~last_seq ~hash:h =
  (* A digest from before the origin's restart describes streams the
     origin no longer has. *)
  if not (admit t w ~inc:(Wire.unpack_inc epoch)) then Synced
  else begin
    ensure_windows t;
    if last_seq > t.hi.(w) then t.hi.(w) <- last_seq;
    let next = t.next.(w) in
    (* A delayed digest hashes a state the replica has already left. *)
    if next <= last_seq then Gaps
    else if next = last_seq + 1 && h <> tree_hash t w then Diverged
    else Synced
  end

let sync t ~replica ~origin ~ids ~last_seqs ~deliver =
  if Array.length last_seqs <> t.trees then invalid_arg "Replicas.sync: last_seqs";
  if List.exists (fun (_, tree) -> tree < 0 || tree >= t.trees) ids then
    invalid_arg "Replicas.sync: tree id out of range";
  clear_slice t ~replica ~origin;
  List.iter (fun (id, tree) -> add t (window t ~replica ~origin ~tree) id) ids;
  ensure_windows t;
  Array.iteri
    (fun tree last ->
      let w = window t ~replica ~origin ~tree in
      if last > t.hi.(w) then t.hi.(w) <- last;
      if last >= t.next.(w) then begin
        drop_buffered t w ~below:(last + 1);
        t.next.(w) <- last + 1;
        drain t w ~deliver
      end)
    last_seqs

let join t ~replica ~origin ~inc =
  let stale = inc < incarnation t (window t ~replica ~origin ~tree:0) and reset = ref false in
  for tree = 0 to t.trees - 1 do
    if rekey t (window t ~replica ~origin ~tree) ~inc then reset := true
  done;
  if !reset then (clear_slice t ~replica ~origin; `Reset) else if stale then `Stale else `Current

let clear t ~replica =
  let streams = t.origins * t.trees in
  if Array.length t.next > 0 then begin
    for ot = 0 to streams - 1 do
      reset t ((ot * t.replicas) + replica) ~inc:0
    done;
    t.dups.(replica) <- 0
  end;
  if Array.length t.hashes > 0 then begin
    drop_where t ~replica (fun _ -> false);
    for ot = 0 to streams - 1 do
      t.hashes.((ot * t.replicas) + replica) <- 0
    done;
    for origin = 0 to t.origins - 1 do
      t.sizes.((origin * t.replicas) + replica) <- 0
    done;
    t.totals.(replica) <- 0
  end
