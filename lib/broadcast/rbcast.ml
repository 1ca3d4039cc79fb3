(* Reliable-broadcast bookkeeping on the sending side: per-(source, tree)
   sequence numbers, the bounded replay log that answers NACKs, the
   authoritative live-flow set whose per-tree hashes anti-entropy digests
   carry, and the digest backoff of quiet streams. Pure data structure —
   timers, packets and topology live with the caller (R2c2_sim / Stack);
   the receiving side is [Replicas]. *)

type 'a origin = {
  trees : int;
  log_cap : int;
  next : int array;  (* per tree: next sequence number to assign *)
  logs : (int, 'a) Hashtbl.t array;  (* per tree: seq -> payload replay log *)
  live : (int, int) Hashtbl.t;  (* authoritative live set: flow id -> its tree *)
  hashes : int array;  (* per tree: [Replicas] set hash of the tree's live flows *)
  digested : int array;  (* per tree: last_seq its latest digest carried; -1 = none *)
  skip : int array;  (* per tree: rounds a quiet stream skips after its latest digest *)
  due : int array;  (* per tree: epoch of the next digest while the stream stays quiet *)
  mutable epoch : int;
  mutable inc : int;  (* incarnation: bumped by crash-restart, not by digests *)
}

let digest_cap = 8

let origin ?(log_cap = 65536) ~trees () =
  if trees < 1 then invalid_arg "Rbcast.origin: trees < 1";
  if log_cap < 1 then invalid_arg "Rbcast.origin: log_cap < 1";
  {
    trees;
    log_cap;
    next = Array.make trees 0;
    logs = Array.init trees (fun _ -> Hashtbl.create 16);
    live = Hashtbl.create 16;
    hashes = Array.make trees 0;
    digested = Array.make trees (-1);
    skip = Array.make trees 1;
    due = Array.make trees 0;
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

let mark_live o ~tree id =
  check_tree o tree;
  if not (Hashtbl.mem o.live id) then begin
    Hashtbl.replace o.live id tree;
    o.hashes.(tree) <- o.hashes.(tree) + Replicas.id_hash id
  end

let mark_dead o id =
  match Hashtbl.find o.live id with
  | tree ->
      Hashtbl.remove o.live id;
      o.hashes.(tree) <- o.hashes.(tree) - Replicas.id_hash id
  | exception Not_found -> ()

let snapshot o =
  ( List.rev
      (Util.Tbl.fold_sorted ~cmp:Int.compare (fun id tree acc -> (id, tree) :: acc) o.live []),
    Array.map (fun n -> n - 1) o.next )

let tree_hash o ~tree =
  check_tree o tree;
  o.hashes.(tree)

let state_hash o = Array.fold_left ( + ) 0 o.hashes

let bump_epoch o =
  o.epoch <- o.epoch + 1;
  o.epoch

(* A digest has no spare payload word, so its epoch word carries the
   incarnation too; only incarnations are ever compared. *)
let epoch_bits = 16

let pack_epoch ~inc ~epoch =
  if inc < 0 || inc lsr epoch_bits <> 0 then invalid_arg "Rbcast.pack_epoch: incarnation";
  (inc lsl epoch_bits) lor (epoch land ((1 lsl epoch_bits) - 1))

let unpack_inc word = word lsr epoch_bits

(* A moved stream is digested in the round at hand and restarts its
   backoff; a quiet one then skips 1, 2, 4 and then [digest_cap] rounds
   between digests. *)
let digest_due o ~tree =
  check_tree o tree;
  let last = o.next.(tree) - 1 in
  let moved = last <> o.digested.(tree) in
  let due = last >= 0 && (moved || o.epoch >= o.due.(tree)) in
  if due then begin
    o.skip.(tree) <- (if moved then 1 else min digest_cap (2 * o.skip.(tree)));
    o.digested.(tree) <- last;
    o.due.(tree) <- o.epoch + o.skip.(tree) + 1
  end;
  due

(* Forgetting what a stream's latest digest carried makes it count as
   moved in the next round. *)
let note_nack o ~tree ~to_seq =
  check_tree o tree;
  if to_seq >= o.next.(tree) - 1 then o.digested.(tree) <- -1

let reset_backoff o = Array.fill o.digested 0 o.trees (-1)

(* Crash-restart: the node lost every bit of its soft state, so the origin
   comes back cold — empty logs, sequence spaces at 0, no live flows —
   under a fresh incarnation. The incarnation, not the anti-entropy epoch
   (which [bump_epoch] advances every digest round), is what receive
   windows key their invalidation on ([Replicas.admit]). *)
let restart o =
  Array.fill o.next 0 o.trees 0;
  Array.iter Hashtbl.reset o.logs;
  Hashtbl.reset o.live;
  Array.fill o.hashes 0 o.trees 0;
  reset_backoff o;
  o.epoch <- o.epoch + 1;
  o.inc <- o.inc + 1;
  o.inc

let incarnation o = o.inc
