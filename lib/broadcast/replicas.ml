(* One table for every receive window and believed flow set of a rack, or
   of a single library replica. Pure data structure: timers, packets and
   the origin side ([Rbcast]) stay with the caller. A row is one (replica,
   origin) pair; its windows are [row * trees] to [row * trees + trees - 1],
   and each window also indexes the set hash of the flows on its tree. *)

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
  (* Believed sets, also empty until first use. *)
  mutable sets : int Util.Itbl.t array;  (* per replica: id -> its window *)
  mutable hashes : int array;  (* per window: set hash of the flows on its tree *)
  mutable sizes : int array;  (* per row: the slice's size *)
}

let create ~replicas ~origins ~trees =
  if replicas < 1 || origins < 1 || trees < 1 then invalid_arg "Replicas.create";
  { replicas; origins; trees; next = [||]; hi = [||]; inc = [||]; armed = Bytes.empty;
    dups = [||]; buffer = Util.Itbl.create 16; sets = [||]; hashes = [||]; sizes = [||] }

let id_hash = Util.Itbl.hash

let event e flow =
  match e with
  | Wire.Flow_finish -> (2 * flow) + 1
  | Wire.Flow_start | Wire.Demand_update | Wire.Route_change -> 2 * flow

let windows t = t.replicas * t.origins * t.trees
let window t ~replica ~origin ~tree = (((replica * t.origins) + origin) * t.trees) + tree
let key t w seq = (seq * windows t) + w

(* Before first use every window and slice reads as a fresh one. *)
let read col i ~fresh = if Array.length col = 0 then fresh else col.(i)
let next_expected t w = read t.next w ~fresh:0
let highest_heard t w = read t.hi w ~fresh:(-1)
let incarnation t w = read t.inc w ~fresh:0
let tree_hash t w = read t.hashes w ~fresh:0
let size t ~replica ~origin = read t.sizes ((replica * t.origins) + origin) ~fresh:0
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
    let r = w / (t.origins * t.trees) in
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
  let base = window t ~replica ~origin ~tree:0 and ok = ref true in
  for w = base to base + t.trees - 1 do
    if next_expected t w <= highest_heard t w then ok := false
  done;
  !ok

let arm t w =
  ensure_windows t;
  Bytes.get t.armed w = '\000' && (Bytes.set t.armed w '\001'; true)

let disarm t w = if Array.length t.next > 0 then Bytes.set t.armed w '\000'

(* -- believed sets --------------------------------------------------------- *)

let replica_of t w = w / (t.origins * t.trees)

let add t w id =
  if Array.length t.sets = 0 then begin
    t.sets <- Array.init t.replicas (fun _ -> Util.Itbl.create (max 32 t.origins));
    t.hashes <- Array.make (windows t) 0;
    t.sizes <- Array.make (t.replicas * t.origins) 0
  end;
  let set = t.sets.(replica_of t w) in
  if not (Util.Itbl.mem set id) then begin
    Util.Itbl.replace set id w;
    t.hashes.(w) <- t.hashes.(w) + id_hash id;
    t.sizes.(w / t.trees) <- t.sizes.(w / t.trees) + 1
  end

let remove t ~replica id =
  if Array.length t.sets > 0 then
    match Util.Itbl.find t.sets.(replica) id with
    | w ->
        Util.Itbl.remove t.sets.(replica) id;
        t.hashes.(w) <- t.hashes.(w) - id_hash id;
        t.sizes.(w / t.trees) <- t.sizes.(w / t.trees) - 1
    | exception Not_found -> ()

let apply t w ev =
  if ev >= 0 then
    if ev land 1 = 0 then add t w (ev lsr 1) else remove t ~replica:(replica_of t w) (ev lsr 1)

let believed t ~replica =
  if Array.length t.sets = 0 then [||]
  else Util.Itbl.sorted_keys t.sets.(replica)

(* The sum of the tree hashes of windows [first] to [first + n - 1]. *)
let sum_hashes t first n =
  let h = ref 0 in
  if Array.length t.hashes > 0 then
    for w = first to first + n - 1 do
      h := !h + t.hashes.(w)
    done;
  !h

let hash t ~replica ~origin = sum_hashes t (window t ~replica ~origin ~tree:0) t.trees
let replica_hash t ~replica = sum_hashes t (replica * t.origins * t.trees) (t.origins * t.trees)

let clear_slice t ~replica ~origin =
  let row = (replica * t.origins) + origin in
  if size t ~replica ~origin > 0 then begin
    (* Order-independent: drops exactly the origin's members. *)
    Util.Itbl.filter_map_inplace
      (fun _ w -> if w / t.trees = row then None else Some w)
      t.sets.(replica);
    Array.fill t.hashes (row * t.trees) t.trees 0;
    t.sizes.(row) <- 0
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
  let base = window t ~replica ~origin ~tree:0 in
  let stale = inc < incarnation t base and reset = ref false in
  for w = base to base + t.trees - 1 do
    if rekey t w ~inc then reset := true
  done;
  if !reset then (clear_slice t ~replica ~origin; `Reset) else if stale then `Stale else `Current

let clear t ~replica =
  if Array.length t.next > 0 then begin
    for w = replica * t.origins * t.trees to ((replica + 1) * t.origins * t.trees) - 1 do
      reset t w ~inc:0
    done;
    t.dups.(replica) <- 0
  end;
  if Array.length t.sets > 0 then begin
    Util.Itbl.reset t.sets.(replica);
    Array.fill t.hashes (replica * t.origins * t.trees) (t.origins * t.trees) 0;
    Array.fill t.sizes (replica * t.origins) t.origins 0
  end
