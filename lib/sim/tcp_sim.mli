(** TCP baseline over ECMP single-path routing (paper §5.2).

    A NewReno-style window protocol: slow start, congestion avoidance,
    triple-duplicate-ACK fast retransmit with NewReno partial-ACK recovery,
    and retransmission timeouts. Every flow uses one hash-chosen shortest
    path; receivers send cumulative ACKs along the reverse path. Output
    queues are finite and tail-drop, which is TCP's congestion signal. *)

type config = { queue_capacity : int  (** bytes per output queue *) }

val default_config : config
(** 64 KB queues. Fixed for every run: the {!Topology} rack constants
    (link speed, hop latency, MTU), an initial window of 10 packets and a
    100 µs minimum RTO. *)

type result = {
  metrics : Metrics.t;
  max_queue : int array;
  drops : int;
  retransmits : int;
  data_wire_bytes : Util.Units.bytes;
}

val run : ?until_ns:int -> config -> Topology.t -> Workload.Flowgen.spec list -> result
(** Raises [Invalid_argument], before the run starts, for a spec
    {!Workload.Flowgen.check_flow} refuses. *)
