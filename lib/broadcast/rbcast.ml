(* Reliable-broadcast bookkeeping: per-(source, tree) sequence numbers on
   the sending side, receive windows with gap detection and dedup on the
   receiving side, and the deterministic state hash that anti-entropy
   digests carry. Pure data structures — timers, packets and topology live
   with the caller (R2c2_sim / Stack), which keeps this logic reusable by
   both the packet simulator and the application-level control plane. *)

(* -- deterministic state hash -------------------------------------------- *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let hash_fold h v = Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime

(* Order-sensitive, so callers must feed ids sorted ascending (the
   accessors below do). *)
let hash_ids ids = List.fold_left hash_fold fnv_offset ids

(* -- origin (sender) side ------------------------------------------------- *)

type 'a origin = {
  trees : int;
  log_cap : int;
  next : int array;  (* per tree: next sequence number to assign *)
  logs : (int, 'a) Hashtbl.t array;  (* per tree: seq -> payload replay log *)
  live : (int, unit) Hashtbl.t;  (* authoritative live-flow id set *)
  mutable epoch : int;
  mutable inc : int;  (* incarnation: bumped by crash-restart, not by digests *)
}

let origin ?(log_cap = 65536) ~trees () =
  if trees < 1 then invalid_arg "Rbcast.origin: trees < 1";
  if log_cap < 1 then invalid_arg "Rbcast.origin: log_cap < 1";
  {
    trees;
    log_cap;
    next = Array.make trees 0;
    logs = Array.init trees (fun _ -> Hashtbl.create 16);
    live = Hashtbl.create 16;
    epoch = 0;
    inc = 0;
  }

let check_tree o tree =
  if tree < 0 || tree >= o.trees then invalid_arg "Rbcast: tree id out of range"

let send o ~tree payload =
  check_tree o tree;
  let seq = o.next.(tree) in
  o.next.(tree) <- seq + 1;
  Hashtbl.replace o.logs.(tree) seq payload;
  (* Dense sequence space: evicting [seq - cap] on every send bounds the
     log at [cap] entries without a scan. *)
  if seq >= o.log_cap then Hashtbl.remove o.logs.(tree) (seq - o.log_cap);
  seq

let last_seq o ~tree =
  check_tree o tree;
  o.next.(tree) - 1

let replay o ~tree ~seq =
  check_tree o tree;
  Hashtbl.find_opt o.logs.(tree) seq

let mark_live o id = Hashtbl.replace o.live id ()
let mark_dead o id = Hashtbl.remove o.live id
let live_ids o = Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare o.live)
let state_hash o = hash_ids (live_ids o)

let bump_epoch o =
  o.epoch <- o.epoch + 1;
  o.epoch

let epoch o = o.epoch

(* Crash-restart: the node lost every bit of its soft state, so the origin
   comes back cold — empty logs, sequence spaces at 0, no live flows —
   under a fresh incarnation. The incarnation, not the anti-entropy epoch
   (which [bump_epoch] advances every digest round), is what receive
   windows key their invalidation on: a window seeing a higher incarnation
   than its own drops itself and restarts from sequence 0. *)
let restart o =
  Array.fill o.next 0 (Array.length o.next) 0;
  Array.iter Hashtbl.reset o.logs;
  Hashtbl.reset o.live;
  o.epoch <- o.epoch + 1;
  o.inc <- o.inc + 1;
  o.inc

let incarnation o = o.inc

(* -- receive window (per source, per tree) -------------------------------- *)

type 'a rx = {
  mutable rnext : int;  (* next expected sequence number *)
  pending : (int, 'a) Hashtbl.t;  (* out-of-order buffer: seq -> payload *)
  mutable dups : int;
  mutable armed : bool;  (* caller's repair-timer latch *)
  mutable rinc : int;  (* origin incarnation this window is keyed to *)
}

type 'a verdict =
  | Deliver of 'a list  (* in-order run, oldest first *)
  | Duplicate
  | Buffered  (* out of order: a gap is now open *)

let rx () =
  { rnext = 0; pending = Hashtbl.create 8; dups = 0; armed = false; rinc = 0 }

let next_expected r = r.rnext
let duplicates r = r.dups
let rx_incarnation r = r.rinc

(* The stale-window guard (satellite of the crash-restart protocol): a
   window still keyed to a pre-crash incarnation MUST drop its state the
   moment it learns of a newer one, or the restarted origin's fresh
   sequence space collides with the old window — seq 0 of the new
   incarnation would be absorbed as a duplicate and never delivered.
   Returns whether a packet stamped with [epoch] should be processed at
   all: packets from an older incarnation are stale and must be ignored. *)
let ensure_epoch r ~epoch =
  if epoch < r.rinc then false
  else begin
    if epoch > r.rinc then begin
      Hashtbl.reset r.pending;
      r.rnext <- 0;
      r.armed <- false;
      r.rinc <- epoch
    end;
    true
  end

let drain r acc =
  let rec go acc =
    match Hashtbl.find_opt r.pending r.rnext with
    | Some p ->
        Hashtbl.remove r.pending r.rnext;
        r.rnext <- r.rnext + 1;
        go (p :: acc)
    | None -> List.rev acc
  in
  go acc

let receive r ~seq payload =
  if seq < 0 then invalid_arg "Rbcast.receive: negative seq";
  if seq < r.rnext || Hashtbl.mem r.pending seq then begin
    r.dups <- r.dups + 1;
    Duplicate
  end
  else if seq = r.rnext then begin
    r.rnext <- r.rnext + 1;
    Deliver (drain r [ payload ])
  end
  else begin
    Hashtbl.replace r.pending seq payload;
    Buffered
  end

let missing r ~upto =
  let out = ref [] in
  let from = ref (-1) in
  for s = r.rnext to upto do
    if Hashtbl.mem r.pending s then begin
      if !from >= 0 then begin
        out := (!from, s - 1) :: !out;
        from := -1
      end
    end
    else if !from < 0 then from := s
  done;
  if !from >= 0 then out := (!from, upto) :: !out;
  List.rev !out

let fast_forward r ~next =
  if next <= r.rnext then []
  else begin
    (* Everything below [next] is already reflected in the synced state;
       buffered events at or above it are strictly newer and still apply. *)
    Array.iter
      (fun s -> if s < next then Hashtbl.remove r.pending s)
      (Util.Tbl.sorted_keys ~cmp:Int.compare r.pending);
    r.rnext <- next;
    drain r []
  end

let arm r =
  if r.armed then false
  else begin
    r.armed <- true;
    true
  end

let disarm r = r.armed <- false
