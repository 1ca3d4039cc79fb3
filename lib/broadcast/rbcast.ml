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
  logs : 'a array array;
      (* per tree: the replay log, a ring holding [seq] at [seq mod length];
         it doubles up to [log_cap], so it is empty before the first send *)
  live : int Util.Itbl.t;  (* authoritative live set: flow id -> its tree *)
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
    logs = Array.make trees [||];
    live = Util.Itbl.create 16;
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
  let ring = o.logs.(tree) in
  let n = Array.length ring in
  (* Dense sequence space: until the ring reaches [log_cap] nothing was
     overwritten and [seq] sits at [seq], so growing copies it as is. It
     grows by copying: [Array.make] of a major-heap ring filled with the
     young [payload] would force a minor collection. *)
  if seq = n && n < o.log_cap then
    o.logs.(tree) <-
      (if n = 0 then Array.make (min o.log_cap 16) payload
       else if 2 * n <= o.log_cap then Array.append ring ring
       else Array.append ring (Array.sub ring 0 (o.log_cap - n)));
  let ring = o.logs.(tree) in
  ring.(seq mod Array.length ring) <- payload;
  seq

let last_seq o ~tree =
  check_tree o tree;
  o.next.(tree) - 1

let mark_dead o id =
  match Util.Itbl.find o.live id with
  | tree ->
      Util.Itbl.remove o.live id;
      o.hashes.(tree) <- o.hashes.(tree) - Replicas.id_hash id
  | exception Not_found -> ()

let announce o ~tree ~flow event payload =
  check_tree o tree;
  (match event with
  | Wire.Flow_start ->
      if not (Util.Itbl.mem o.live flow) then begin
        Util.Itbl.replace o.live flow tree;
        o.hashes.(tree) <- o.hashes.(tree) + Replicas.id_hash flow
      end
  | Wire.Flow_finish -> mark_dead o flow
  | Wire.Demand_update | Wire.Route_change -> ());
  send o ~tree payload

let snapshot o =
  ( List.rev
      (Util.Itbl.fold_sorted (fun id tree acc -> (id, tree) :: acc) o.live []),
    Array.map (fun n -> n - 1) o.next )

let state_hash o = Array.fold_left ( + ) 0 o.hashes

(* A moved stream is digested in the round at hand and restarts its
   backoff; a quiet one then skips 1, 2, 4 and then [digest_cap] rounds
   between digests. *)
let digest_round o f =
  o.epoch <- o.epoch + 1;
  let epoch = Wire.pack_epoch ~inc:o.inc ~epoch:o.epoch in
  for tree = 0 to o.trees - 1 do
    let last = o.next.(tree) - 1 in
    let moved = last <> o.digested.(tree) in
    if last >= 0 && (moved || o.epoch >= o.due.(tree)) then begin
      o.skip.(tree) <- (if moved then 1 else min digest_cap (2 * o.skip.(tree)));
      o.digested.(tree) <- last;
      o.due.(tree) <- o.epoch + o.skip.(tree) + 1;
      f ~epoch ~tree ~last_seq:last ~hash:o.hashes.(tree)
    end
  done

let nack_bound = 256

(* The ring holds exactly the sequences [max 0 (next - log_cap)] to
   [next - 1]; the bounded range is [from_seq] to [upto]. A NACK for the
   newest event forgets what the stream's latest digest carried, which
   makes it count as moved in the next round. *)
let replay_range o ~tree ~from_seq ~to_seq f =
  check_tree o tree;
  if to_seq < from_seq then invalid_arg "Rbcast.replay_range: empty range";
  let next = o.next.(tree) in
  if to_seq >= next - 1 then o.digested.(tree) <- -1;
  let upto = min to_seq (from_seq + nack_bound - 1) in
  let first = max from_seq (max 0 (next - o.log_cap)) and last = min upto (next - 1) in
  for seq = first to last do
    let ring = o.logs.(tree) in
    f seq ring.(seq mod Array.length ring)
  done;
  first > from_seq || last < upto

let reset_backoff o = Array.fill o.digested 0 o.trees (-1)

(* Crash-restart: the node lost every bit of its soft state, so the origin
   comes back cold — empty logs, sequence spaces at 0, no live flows —
   under a fresh incarnation. The incarnation, not the anti-entropy epoch
   (which every [digest_round] advances), is what receive
   windows key their invalidation on ([Replicas.admit]). *)
let restart o =
  Array.fill o.next 0 o.trees 0;
  Array.fill o.logs 0 o.trees [||];
  Util.Itbl.reset o.live;
  Array.fill o.hashes 0 o.trees 0;
  reset_backoff o;
  o.epoch <- o.epoch + 1;
  o.inc <- o.inc + 1;
  o.inc

let incarnation o = o.inc
