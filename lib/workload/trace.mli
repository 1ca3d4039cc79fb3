(** Flow-trace files: a workload's flow arrivals, one per line, so that a
    workload generated once runs unchanged on the simulator, the emulator
    and the baselines ([r2c2_cli trace] writes one, [r2c2_cli simulate
    --trace] replays it). *)

val save : string -> Flowgen.spec list -> unit
(** Write the specs to a file, one [A arrival_ns src dst size weight
    priority] line each, in list order. *)

val load : string -> Flowgen.spec list
(** The specs of a file {!save} wrote, in file order. Raises [Failure] on
    a malformed line. *)
