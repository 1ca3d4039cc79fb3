(* A peer node's replica of one source's slice of the traffic matrix,
   rebuilt purely from that source's sequenced broadcast stream. The owner
   of the authoritative state is a [Stack]; a [View] is what some other
   node in the rack believes, with the transport between them allowed to
   lose, reorder and duplicate packets. Per-tree receive windows
   ([Rbcast.rx]) deliver events exactly once in order; digests from the
   source expose losses the stream itself cannot reveal (a dropped final
   packet); a state-hash mismatch while sequence-caught-up marks the view
   as diverged, to be repaired by a full-state {!sync}. *)

type t = {
  trees : int;
  windows : (Wire.broadcast * int) Rbcast.rx array;  (* per tree *)
  hi : int array;  (* highest sequence advertised per tree; -1 = none *)
  flows : (int, Wire.broadcast) Hashtbl.t;  (* believed-live id -> record *)
  mutable applied : int;
}

let create ~trees () =
  if trees < 1 then invalid_arg "View.create: trees < 1";
  {
    trees;
    windows = Array.init trees (fun _ -> Rbcast.rx ());
    hi = Array.make trees (-1);
    flows = Hashtbl.create 32;
    applied = 0;
  }

let apply_event t (pkt, flow) =
  t.applied <- t.applied + 1;
  match pkt.Wire.event with
  | Wire.Flow_finish -> Hashtbl.remove t.flows flow
  | Wire.Flow_start | Wire.Demand_update | Wire.Route_change ->
      (* Every event carries the full flow record, so a view can
         (re)materialize a flow from any of them. *)
      Hashtbl.replace t.flows flow pkt

let observe_incarnation t ~inc =
  let prev = Rbcast.rx_incarnation t.windows.(0) in
  if inc < prev then `Stale
  else if inc = prev then `Current
  else begin
    (* The source restarted: everything learned from its old life —
       window positions, advertised highs, the believed flow set — is
       void. The windows re-key in lockstep, so [windows.(0)] speaks for
       all of them above. *)
    Array.iter (fun w -> ignore (Rbcast.ensure_epoch w ~epoch:inc)) t.windows;
    Array.fill t.hi 0 t.trees (-1);
    Hashtbl.reset t.flows;
    `Reset
  end

type verdict =
  | Applied of int  (* events folded into the matrix, in order *)
  | Duplicate
  | Buffered  (* ahead of a gap; repair should be requested *)
  | Malformed of string

let apply_seq t pkt flow seq =
  let tree = pkt.Wire.tree in
  if tree < 0 || tree >= t.trees then Malformed "tree id out of range"
  else begin
    if seq > t.hi.(tree) then t.hi.(tree) <- seq;
    match Rbcast.receive t.windows.(tree) ~seq (pkt, flow) with
    | Rbcast.Deliver ps ->
        List.iter (apply_event t) ps;
        Applied (List.length ps)
    | Rbcast.Duplicate -> Duplicate
    | Rbcast.Buffered -> Buffered
  end

let apply t bytes =
  match Wire.decode_seq_broadcast bytes with
  | Error e -> Malformed e
  | Ok (pkt, flow, seq) -> apply_seq t pkt flow seq

let apply_batch t bytes =
  match Wire.decode_batch bytes with
  | Error e -> Error e
  | Ok items ->
      Ok
        (List.map
           (function
             | Wire.Item_seq_broadcast (pkt, flow, seq) -> apply_seq t pkt flow seq
             | Wire.Item_broadcast _ | Wire.Item_digest _ | Wire.Item_nack _ ->
                 (* Repair batches carry sequenced events only; anything
                    else is a framing mistake, reported in place. *)
                 Malformed "batch item is not a sequenced broadcast")
           items)

let flow_ids t = Array.to_list (Util.Tbl.sorted_keys ~cmp:Int.compare t.flows)
let flow t id = Hashtbl.find_opt t.flows id
let flow_count t = Hashtbl.length t.flows
let matrix_hash t = Rbcast.hash_ids (flow_ids t)
let applied t = t.applied

let duplicates t =
  Array.fold_left (fun acc w -> acc + Rbcast.duplicates w) 0 t.windows

let check_tree t tree =
  if tree < 0 || tree >= t.trees then invalid_arg "View: tree id out of range"

let next_expected t ~tree =
  check_tree t tree;
  Rbcast.next_expected t.windows.(tree)

let missing t ~tree =
  check_tree t tree;
  Rbcast.missing t.windows.(tree) ~upto:t.hi.(tree)

let caught_up t =
  let ok = ref true in
  for tree = 0 to t.trees - 1 do
    if Rbcast.next_expected t.windows.(tree) <= t.hi.(tree) then ok := false
  done;
  !ok

type digest_verdict =
  | Synced
  | Gaps of (int * int) list  (* inclusive missing ranges to NACK *)
  | Diverged  (* caught up yet hashing differently: needs a full sync *)

let observe_digest t (d : Wire.digest) =
  check_tree t d.Wire.dtree;
  let tree = d.Wire.dtree in
  if d.Wire.last_seq > t.hi.(tree) then t.hi.(tree) <- d.Wire.last_seq;
  let next = Rbcast.next_expected t.windows.(tree) in
  if next <= d.Wire.last_seq then Gaps (missing t ~tree)
  else if
    (* A delayed digest (the tree has moved past [last_seq]) hashes a state
       the replica has already left behind; only a digest of the replica's
       current position on this tree can reveal divergence. *)
    next = d.Wire.last_seq + 1 && caught_up t && matrix_hash t <> d.Wire.state_hash
  then Diverged
  else Synced

let sync t ~flows ~last_seqs =
  if Array.length last_seqs <> t.trees then invalid_arg "View.sync: last_seqs";
  Hashtbl.reset t.flows;
  List.iter (fun (id, pkt) -> Hashtbl.replace t.flows id pkt) flows;
  Array.iteri
    (fun tree last ->
      if last > t.hi.(tree) then t.hi.(tree) <- last;
      (* Buffered events beyond the sync are strictly newer; apply them. *)
      List.iter (apply_event t) (Rbcast.fast_forward t.windows.(tree) ~next:(last + 1)))
    last_seqs
