(** Per-flow and per-queue measurement for simulator runs, plus
    per-priority-class tail-latency histograms and SLO attainment. *)

type flow = {
  id : int;
  src : int;
  dst : int;
  size : int;
  priority : int;  (** allocation class; 0 is highest *)
  arrival_ns : int;
  mutable start_tx_ns : int;  (** first packet injection; -1 until then *)
  mutable delivered : int;  (** payload bytes received *)
  mutable finish_ns : int;  (** -1 until complete *)
  mutable next_seq : int;  (** receiver's next in-order sequence *)
  mutable reorder_max : int;  (** peak out-of-order buffer, packets *)
  mutable ooo : int Util.Itbl.t option;
      (** seq -> payload of out-of-order packets: made on the flow's first
          out-of-order packet and dropped at its completion, so a flow
          delivered in order never holds one *)
}

type t

val create : unit -> t

val add_flow :
  ?priority:int -> t -> id:int -> src:int -> dst:int -> size:int -> arrival_ns:int -> unit
(** [priority] (default 0) is recorded on the flow and selects the FCT
    histogram / SLO class the flow's completion is accounted to. *)

val note_first_tx : t -> id:int -> now:int -> unit

val record_delivery : t -> id:int -> seq:int -> payload:int -> now:int -> bool
(** Account one received packet; duplicates are ignored. Returns [true]
    when this packet completes the flow ([delivered >= size]); completion
    also records the flow's FCT into its class histogram and SLO counters
    — all allocation-free. *)

val find : t -> int -> flow
val complete : t -> flow -> bool
val completed_count : t -> int
val all : t -> flow list

val fct_ns : flow -> int
(** Completion minus arrival; raises if incomplete. *)

val throughput_gbps : flow -> Util.Units.gbps
(** size / fct; raises if incomplete. *)

val fcts_us : ?min_size:int -> ?max_size:int -> ?priority:int -> t -> float array
(** Completion times (µs) of completed flows within the size band;
    [priority] additionally restricts to one class (exact match on the
    flow's recorded priority). *)

val throughputs_gbps : ?min_size:int -> ?max_size:int -> t -> Util.Units.gbps array

(** {2 Per-class tail latency and SLO attainment}

    Completions are bucketed into log-major / linear-sub latency histograms
    (HDR layout, 32 sub-buckets per octave, relative quantization error
    under ~3%), one per priority class — fixed arrays allocated at
    {!create}, so steady-state recording allocates nothing. Priorities are
    clamped into [0, max_class - 1] for accounting. *)

val max_class : int
(** 8: priority classes tracked separately. *)

val set_slo : t -> priority:int -> bound_ns:int -> unit
(** Declare the class's latency bound; completions at or under it count as
    within-SLO. Call before the run. Raises [Invalid_argument] on a class
    outside [0, max_class) or a non-positive bound. *)

val slo_bound : t -> priority:int -> int
(** The declared bound; 0 when the class has no SLO. *)

val class_completed : t -> priority:int -> int
(** Completed flows accounted to the class. *)

val slo_attainment : t -> priority:int -> float
(** Fraction of the class's completed flows with FCT within the bound —
    exact (per-flow comparison, not read off the quantized histogram);
    1 while nothing has completed, and 1 for classes without an SLO. *)

val class_percentile : t -> priority:int -> float -> float
(** [class_percentile t ~priority p] is the class's FCT percentile in ns
    from its histogram ({!Util.Stats.percentile} rank convention, linear
    interpolation between order statistics, bucket-midpoint values);
    0 while the class has no completion. *)

val set_goodput_bucket : t -> bucket_ns:int -> unit
(** Enable the rack-wide goodput time series: every newly accepted payload
    byte (duplicates excluded) is added to the bucket of its delivery time.
    Used to measure the goodput dip around a failure. *)

val goodput_series : t -> (int * int) array
(** [(bucket_start_ns, payload_bytes)] pairs in time order; empty buckets
    are omitted. Empty unless {!set_goodput_bucket} was called. *)

val note_rejoin : t -> node:int -> start:int -> finish:int -> unit
(** Stamp one completed crash-restart rejoin: the node came back at [start]
    and was sequence-caught-up with every reachable origin at [finish].
    Raises [Invalid_argument] if [finish < start]. *)

val rejoin_samples : t -> (int * int * int) list
(** [(node, restart_ns, caught_up_ns)] in stamping order — the p99 rejoin
    time of the graychaos bench comes from here. *)
