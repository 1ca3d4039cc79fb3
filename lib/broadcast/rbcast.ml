(* Reliable-broadcast bookkeeping on the sending side: per-(source, tree)
   sequence numbers, the bounded replay log that answers NACKs, and the
   authoritative live-flow set whose hash anti-entropy digests carry.
   Pure data structure — timers, packets and topology live with the caller
   (R2c2_sim / Stack); the receiving side is [Replicas]. *)

type 'a origin = {
  trees : int;
  log_cap : int;
  next : int array;  (* per tree: next sequence number to assign *)
  logs : (int, 'a) Hashtbl.t array;  (* per tree: seq -> payload replay log *)
  live : (int, unit) Hashtbl.t;  (* authoritative live-flow id set *)
  mutable hash : int;  (* [Replicas] set hash of [live] *)
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
    hash = 0;
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

let mark_live o id =
  if not (Hashtbl.mem o.live id) then begin
    Hashtbl.replace o.live id ();
    o.hash <- o.hash + Replicas.id_hash id
  end

let mark_dead o id =
  if Hashtbl.mem o.live id then begin
    Hashtbl.remove o.live id;
    o.hash <- o.hash - Replicas.id_hash id
  end

let snapshot o =
  (Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare o.live), Array.map (fun n -> n - 1) o.next)
let state_hash o = o.hash

let bump_epoch o =
  o.epoch <- o.epoch + 1;
  o.epoch

(* Crash-restart: the node lost every bit of its soft state, so the origin
   comes back cold — empty logs, sequence spaces at 0, no live flows —
   under a fresh incarnation. The incarnation, not the anti-entropy epoch
   (which [bump_epoch] advances every digest round), is what receive
   windows key their invalidation on ([Replicas.admit]). *)
let restart o =
  Array.fill o.next 0 (Array.length o.next) 0;
  Array.iter Hashtbl.reset o.logs;
  Hashtbl.reset o.live;
  o.hash <- 0;
  o.epoch <- o.epoch + 1;
  o.inc <- o.inc + 1;
  o.inc

let incarnation o = o.inc
