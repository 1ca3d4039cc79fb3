(** A peer's replica of one source's traffic-matrix slice, rebuilt from the
    sequenced broadcast stream alone.

    The authoritative state lives in a {!Stack}; a view is what another
    node believes after the transport between them lost, reordered or
    duplicated control packets. A view is a one-receiver, one-origin
    {!Replicas} table: per-tree receive windows deliver each event exactly
    once in sequence order; {!observe_digest} turns the source's
    anti-entropy beacons into repair decisions; {!sync} applies a
    full-state repair. The view's {!matrix_hash} equals the source's
    {!Stack.matrix_hash} exactly when the replica is consistent — the
    property the divergence watchdog checks each epoch. *)

type t

val create : trees:int -> unit -> t
(** A replica expecting the source's tree count. *)

val observe_incarnation : t -> inc:int -> [ `Current | `Reset | `Stale ]
(** Process the source incarnation stamped on an incoming packet (a JOIN,
    or any sequenced broadcast). [`Current] — matches the replica's key,
    nothing to do. [`Reset] — the source restarted: the windows re-key to
    the new incarnation and the believed flow set is dropped; the caller
    should request a snapshot ({!Stack.snapshot_request}). [`Stale] — old
    incarnation, the packet should be ignored. *)

type verdict =
  | Applied of int
      (** the packet (plus any unblocked buffered successors) was folded
          into the matrix — count of events applied *)
  | Duplicate  (** absorbed; the matrix is unchanged *)
  | Buffered  (** arrived ahead of a gap; repair should be requested *)
  | Malformed of string  (** decode or checksum failure; dropped *)

val apply : t -> bytes -> verdict
(** Feed one 24-byte sequenced broadcast ({!Wire.encode_seq_broadcast})
    as received off the wire. *)

val apply_batch : t -> bytes -> (verdict list, string) result
(** Feed one repair batch ({!Stack.replay_range}): every
    [Wire.Item_seq_broadcast] is applied in batch order, yielding one
    verdict each (a non-event item yields [Malformed] in its slot).
    [Error] only when the buffer itself fails to parse — then nothing was
    applied. *)

type digest_verdict =
  | Synced  (** nothing missing as far as this digest can tell *)
  | Gaps of (int * int) list
      (** inclusive missing sequence ranges on the digest's tree — what a
          NACK to the source should request (then replay via
          {!Stack.replay_range}) *)
  | Diverged
      (** positioned exactly at the digest's [last_seq] on its tree, yet
          the believed flows on that tree hash differently from the
          source's: genuine divergence, repair with {!Stack.sync_view}.
          Events still missing on other trees do not matter, since every
          event of a flow rides one tree. *)

val observe_digest : t -> Wire.digest -> digest_verdict
(** Process one anti-entropy digest from the source. Detects losses the
    stream cannot reveal — e.g. when the {e last} broadcast of a burst was
    dropped and no later packet exposes the gap. A delayed digest, whose
    tree the replica has already moved past, hashes an older state and
    answers [Synced]; so does one stamped with an older incarnation than
    the replica's ({!Rbcast.unpack_inc} of its epoch field), sent before
    the source restarted. A newer incarnation re-keys the digest's tree
    window first ({!Replicas.admit}). *)

val sync : t -> flows:(int * int) list -> last_seqs:int array -> unit
(** Full-state repair: replace the believed flows, each [(id, tree)], and
    fast-forward every window past [last_seqs]; events buffered beyond the
    sync still apply. *)

val matrix_hash : t -> int64
(** The {!Replicas.id_hash} set hash of the believed live-flow ids. *)

val flow_ids : t -> int list
(** Believed-live flow ids, ascending. *)

val flow_count : t -> int

val next_expected : t -> tree:int -> int
val caught_up : t -> bool
(** No known missing sequence on any tree. *)

val applied : t -> int
(** Events folded into the matrix so far. *)

val duplicates : t -> int
(** Packets absorbed as duplicates across all windows. *)
