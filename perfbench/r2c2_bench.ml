(* r2c2_bench: one workload, one seed, one measurement window.

     r2c2_bench.exe --workload W --seed N --seconds S --trace 0|1
                    [--trace-out FILE]

   Untraced (--trace 0): repetitions of the workload until the window is
   used (at least two, whose output digests must agree), each followed by a
   batch of timed set-ups; reports the end-to-end metrics as medians over
   them.
   Traced (--trace 1): one untraced repetition, then one traced repetition
   that must reproduce its digest; reports the per-layer metrics and writes
   the spans to FILE as Chrome trace-event JSON.

   Every metric is printed as "metric NAME VALUE UNIT"; the last line is
   the JSON summary. The exit code is 1 on any correctness failure. *)

module W = Workloads
module T = Tracer

let setup_batch = 4
let setup_tries = 4
let max_reps = 40

let median xs =
  let a = Array.of_list xs in
  if Array.length a = 0 then 0.0 else Util.Stats.median a

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metric (x : W.metric) = Printf.printf "metric %s %s %s\n" x.name (num x.value) x.unit

let json_metrics ms =
  String.concat ","
    (List.map
       (fun (x : W.metric) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (T.json_string x.name) (num x.value)
           (T.json_string x.unit))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let trace_out = ref "" in
  let usage = "r2c2_bench.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W fig10_global | ctrl_lossy | stack_epochs");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer tracing");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace-event JSON (traced runs)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let make =
    match List.assoc_opt !workload W.all with
    | Some f when !trace = 0 || !trace = 1 -> f
    | Some _ | None ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 in
  (* Inputs first, from the seed alone; nothing here is timed. *)
  let w = make !seed in
  Printf.printf "workload %s seed %d trace %d seconds %g\n" w.wname !seed !trace !seconds;
  List.iter (fun (k, v) -> Printf.printf "param %s %s\n" k v) w.params;
  let window_ns = int_of_float (!seconds *. 1e9) in
  let rep tr =
    Gc.compact ();
    w.rep tr
  in
  (* The first repetition runs on a fresh heap, so the peak heap read right
     after it is a deterministic function of the seed. *)
  let start = T.now_ns () in
  let first = rep None in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Set-up samples are taken in small batches after each repetition, so
     that they spread over the run like the repetitions do. A sample is the
     best of [setup_tries] set-ups, each after a full major GC: on a shared
     host, single set-ups of well under a millisecond are dominated by
     one-off page-fault and cache-miss bursts. *)
  let setups = ref [] in
  let sample_setups () =
    for _ = 1 to setup_batch do
      let best = ref max_int in
      for _ = 1 to setup_tries do
        Gc.full_major ();
        let a = T.now_ns () in
        w.setup ();
        best := min !best (T.now_ns () - a)
      done;
      setups := (float_of_int !best /. 1e9) :: !setups
    done
  in
  if not traced then sample_setups ();
  let untraced = ref [ first ] in
  if not traced then begin
    (* Another repetition only if it fits the window (a second one always
       runs: the digest check needs two). *)
    let last = ref first.wall_s in
    while
      List.length !untraced < max_reps
      && (List.length !untraced < 2
         || T.now_ns () - start + int_of_float (!last *. 1.15e9) <= window_ns)
    do
      let r = rep None in
      sample_setups ();
      last := r.wall_s;
      untraced := r :: !untraced
    done
  end;
  let untraced = List.rev !untraced in
  let tracer = if traced then Some (T.create ()) else None in
  let traced_rep = Option.map (fun tr -> rep (Some tr)) tracer in
  let all = untraced @ Option.to_list traced_rep in
  (* Correctness: every gate, and one digest across every repetition. *)
  let errors = List.concat_map (fun (r : W.rep) -> r.errors) all in
  let digests = List.sort_uniq compare (List.map (fun (r : W.rep) -> r.digest) all) in
  let errors =
    if List.length digests > 1 then
      errors @ [ "output digests differ across repetitions: " ^ String.concat " " digests ]
    else errors
  in
  let attempted = List.fold_left (fun acc (r : W.rep) -> acc + r.attempted) 0 all in
  let failed = List.fold_left (fun acc (r : W.rep) -> acc + r.failed) 0 all in
  List.iter (fun e -> Printf.printf "error %s\n" e) errors;
  Printf.printf "digest %s repetitions %d%s\n" first.digest (List.length untraced)
    (if traced then " +1 traced" else "");
  let med f = median (List.map f untraced) in
  let outputs =
    List.map
      (fun (x : W.metric) ->
        W.m x.name x.unit
          (med (fun (r : W.rep) ->
               (List.find (fun (y : W.metric) -> y.name = x.name) r.outputs).value)))
      first.outputs
  in
  (* Speed over the arrival window, in wall seconds and in reference-kernel
     runs: the window's wall time divided by the mean kernel run interleaved
     with it is the window's length in kernel runs. *)
  let window_ms (r : W.rep) = r.step_ms *. float_of_int (Array.length r.step_walls) in
  let window_s (r : W.rep) = Array.fold_left ( +. ) 0.0 r.step_walls in
  let per_wall_s r = window_ms r /. window_s r in
  let kernel_mean (r : W.rep) =
    Array.fold_left ( +. ) 0.0 r.kernel_s /. float_of_int (Array.length r.kernel_s)
  in
  let per_kref r = 1000.0 *. window_ms r /. (window_s r /. kernel_mean r) in
  let failed_frac = W.m "failed_frac" "ratio" (float_of_int failed /. float_of_int attempted) in
  let e2e =
    if traced then []
    else
      [
        W.m "setup_s" "s" (median !setups);
        W.m "sim_ms_per_kref" "ms/kref" (med per_kref);
        W.m "minor_mwords" "Mwords" (med (fun r -> r.minor_words /. 1e6));
        W.m "peak_heap_mb" "MB" peak_heap_mb;
      ]
  in
  List.iter print_metric (e2e @ (failed_frac :: outputs));
  if not traced then print_metric (W.m "sim_ms_per_wall_s" "ms/s" (med per_wall_s));
  Printf.printf "metric wall_s %s s\nmetric sim_ms %s ms\n"
    (num (med (fun r -> r.wall_s)))
    (num (med (fun r -> r.sim_ms)));
  let layers =
    match (tracer, traced_rep) with
    | Some tr, Some r ->
        List.iter
          (fun (l, s) -> Printf.printf "self %s %.6f s\n" l (float_of_int s /. 1e9))
          (T.layer_self tr);
        if !trace_out <> "" then
          T.write_chrome tr ~path:!trace_out
            ~meta:[ ("workload", w.wname); ("seed", string_of_int !seed); ("digest", r.digest) ];
        let wall_ns = r.wall_s *. 1e9 in
        let coverage = float_of_int r.coverage_ns /. wall_ns in
        (* Both walls counted in reference-kernel runs, so that the host's
           drift between the two repetitions cancels out. *)
        let traced_runs = (r.wall_s -. (float_of_int r.probe_ns /. 1e9)) /. kernel_mean r in
        let overhead = 100.0 *. ((traced_runs /. (first.wall_s /. kernel_mean first)) -. 1.0) in
        List.map
          (fun (x : W.metric) ->
            match x.name with
            | "trace.coverage" -> { x with value = coverage }
            | "trace.overhead_pct" -> { x with value = overhead }
            | _ -> x)
          r.layers
    | _ -> []
  in
  List.iter print_metric layers;
  let correct = errors = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed
    (json_metrics (if traced then layers else e2e));
  exit (if correct then 0 else 1)
