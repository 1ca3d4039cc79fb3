(* A peer node's replica of one source's slice of the traffic matrix,
   rebuilt purely from that source's sequenced broadcast stream: a
   1 × 1 × trees [Replicas] table that decodes the wire bytes. The owner of
   the authoritative state is a [Stack]; a [View] is what some other node
   in the rack believes, with the transport between them allowed to lose,
   reorder and duplicate packets. *)

type t = { trees : int; reps : Replicas.t; mutable applied : int }

let create ~trees () =
  { trees; reps = Replicas.create ~replicas:1 ~origins:1 ~trees; applied = 0 }

let window t tree =
  if tree < 0 || tree >= t.trees then invalid_arg "View: tree id out of range";
  Replicas.window t.reps ~replica:0 ~origin:0 ~tree

let apply_event t w ev =
  t.applied <- t.applied + 1;
  Replicas.apply t.reps w ev

let observe_incarnation t ~inc = Replicas.join t.reps ~replica:0 ~origin:0 ~inc

type verdict =
  | Applied of int  (* events folded into the matrix, in order *)
  | Duplicate
  | Buffered  (* ahead of a gap; repair should be requested *)
  | Malformed of string

let apply_seq t pkt flow seq =
  let tree = pkt.Wire.tree in
  if tree < 0 || tree >= t.trees then Malformed "tree id out of range"
  else begin
    let before = t.applied in
    let ev = Replicas.event pkt.Wire.event flow in
    match Replicas.receive t.reps (window t tree) ~seq ev ~deliver:(apply_event t) with
    | Replicas.Delivered -> Applied (t.applied - before)
    | Replicas.Duplicate -> Duplicate
    | Replicas.Buffered -> Buffered
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

let flow_ids t = Array.to_list (Replicas.believed t.reps ~replica:0)
let flow_count t = Replicas.size t.reps ~replica:0 ~origin:0
let matrix_hash t = Int64.of_int (Replicas.hash t.reps ~replica:0 ~origin:0)
let applied t = t.applied
let duplicates t = Replicas.duplicates t.reps

let next_expected t ~tree = Replicas.next_expected t.reps (window t tree)

let caught_up t = Replicas.caught_up t.reps ~replica:0 ~origin:0

type digest_verdict =
  | Synced
  | Gaps of (int * int) list  (* inclusive missing ranges to NACK *)
  | Diverged  (* at the digest's position, yet its tree hashes differently *)

let observe_digest t (d : Wire.digest) =
  let w = window t d.Wire.dtree in
  (* The wire carries the 63-bit set hash sign-extended to 64 bits. *)
  match
    Replicas.observe_digest t.reps w ~epoch:d.Wire.epoch ~last_seq:d.Wire.last_seq
      ~hash:(Int64.to_int d.Wire.state_hash)
  with
  | Replicas.Gaps -> Gaps (Replicas.missing t.reps w)
  | Replicas.Synced -> Synced
  | Replicas.Diverged -> Diverged

let sync t ~flows ~last_seqs =
  Replicas.sync t.reps ~replica:0 ~origin:0 ~ids:flows ~last_seqs ~deliver:(apply_event t)
