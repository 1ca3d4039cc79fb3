(* The reference kernel that host-normalised speeds are expressed in.

   It is fixed code of the benchmark's own, nothing from lib/. Like the
   simulator, it mixes random reads and writes over a working set larger
   than the caches with hash-table updates. Other tenants of a shared host
   slow it and the simulator down together, so a speed counted in kernel
   runs instead of seconds filters most of their noise out. It allocates
   nothing once warm, and its array lives outside the OCaml heap, so it
   leaves the allocation and heap metrics alone. *)

let cells = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21)
let slots = 16_384
let table : (int, int) Hashtbl.t = Hashtbl.create slots
let iterations = 100_000

let () =
  Bigarray.Array1.fill cells 0;
  for k = 0 to slots - 1 do
    Hashtbl.replace table k 0
  done

(* One run of the kernel; its wall time in ns. *)
let run () =
  let start = Tracer.now_ns () in
  let x = ref 12345 in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land ((1 lsl 21) - 1);
    Bigarray.Array1.unsafe_set cells !x (Bigarray.Array1.unsafe_get cells !x + i);
    if i land 7 = 0 then Hashtbl.replace table (!x land (slots - 1)) i
  done;
  Tracer.now_ns () - start

(* Kernel runs interleaved with a measured phase: one whenever
   [every_ns] of wall time has passed since the last, placed between the
   phase's timed steps so that they never count in a step's wall time. *)
let every_ns = 50_000_000

type pacer = { samples : Tracer.Vec.t; mutable last : int }

(* The untimed first run faults the kernel's pages back in, e.g. after a
   fork shared them copy-on-write. *)
let pacer () =
  ignore (run ());
  { samples = Tracer.Vec.create (); last = Tracer.now_ns () }

let tick p =
  if Tracer.now_ns () - p.last >= every_ns then begin
    Tracer.Vec.push p.samples (run ());
    p.last <- Tracer.now_ns ()
  end
