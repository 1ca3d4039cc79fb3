type flow = {
  id : int;
  src : int;
  dst : int;
  size : int;
  priority : int;
  arrival_ns : int;
  mutable start_tx_ns : int;
  mutable delivered : int;
  mutable finish_ns : int;
  mutable next_seq : int;
  mutable reorder_max : int;
  mutable ooo : int Util.Itbl.t option;
}

(* -- allocation-free log-bucketed latency histogram ----------------------- *)

(* HDR-style layout: values below [sub_count] get one bucket each; above,
   each power-of-two octave is split into [sub_count] linear sub-buckets,
   so the relative quantization error is bounded by 2^-sub_bits (~3%).
   Fixed int arrays sized at creation; recording is a handful of integer
   ops and never allocates — safe on the delivery hot path. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)

(* 62-bit values: msb in 0..62, blocks 1..58 above the direct range. *)
let hist_buckets = (63 - sub_bits + 1) * sub_count

let msb_index v =
  let m = ref 0 in
  let x = ref v in
  while !x > 1 do
    x := !x lsr 1;
    incr m
  done;
  !m

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else begin
    let msb = msb_index v in
    let shift = msb - sub_bits in
    let sub = (v lsr shift) land (sub_count - 1) in
    ((msb - sub_bits + 1) * sub_count) + sub
  end

(* Inclusive value range covered by a bucket. *)
let bucket_bounds idx =
  if idx < sub_count then (idx, idx)
  else begin
    let block = idx lsr sub_bits in
    let sub = idx land (sub_count - 1) in
    let msb = block + sub_bits - 1 in
    let width = 1 lsl (msb - sub_bits) in
    let lo = (1 lsl msb) lor (sub * width) in
    (lo, lo + width - 1)
  end

type hist = { counts : int array; mutable total : int }

let hist_create () = { counts = Array.make hist_buckets 0; total = 0 }

let hist_record h v =
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

(* Value at 0-based integer rank [k]: the midpoint of the bucket holding
   the k-th order statistic (exact below [sub_count], where buckets are
   single-valued). *)
let hist_value_at_rank h k =
  let cum = ref 0 in
  let idx = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !idx < hist_buckets do
    let c = h.counts.(!idx) in
    if c > 0 && !cum + c > k then found := !idx else cum := !cum + c;
    incr idx
  done;
  if !found < 0 then invalid_arg "Metrics: histogram rank out of range";
  let lo, hi = bucket_bounds !found in
  float_of_int (lo + hi) /. 2.0

(* Same rank convention as {!Util.Stats.percentile}: rank = p/100 * (n-1),
   linear interpolation between the two enclosing order statistics. *)
let hist_percentile h p =
  if h.total = 0 then invalid_arg "Metrics: percentile of an empty histogram";
  if p < 0.0 || p > 100.0 then invalid_arg "Metrics: percentile out of [0, 100]";
  let n = h.total in
  if n = 1 then hist_value_at_rank h 0
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (hist_value_at_rank h lo *. (1.0 -. frac)) +. (hist_value_at_rank h hi *. frac)
  end

(* -- per-priority-class SLO accounting ------------------------------------ *)

(* Classes are clamped into [0, max_class - 1] for accounting; the flow
   record keeps the exact priority. *)
let max_class = 8

type t = {
  flows : flow Util.Itbl.t;
  mutable completed : int;
  mutable bucket_ns : int;  (* goodput histogram bucket width; 0 = disabled *)
  buckets : int Util.Itbl.t;  (* bucket index -> accepted payload bytes *)
  mutable rejoins : (int * int * int) list;  (* (node, restart_ns, caught_up_ns), newest first *)
  fct_hist : hist array;  (* per-class FCT histograms, always recorded *)
  slo_bound_ns : int array;  (* 0 = no SLO declared for the class *)
  slo_completed : int array;  (* completed flows per class *)
  slo_within : int array;  (* of those, FCT <= bound (all, when no SLO) *)
}

let create () =
  {
    flows = Util.Itbl.create 256;
    completed = 0;
    bucket_ns = 0;
    buckets = Util.Itbl.create 64;
    rejoins = [];
    fct_hist = Array.init max_class (fun _ -> hist_create ());
    slo_bound_ns = Array.make max_class 0;
    slo_completed = Array.make max_class 0;
    slo_within = Array.make max_class 0;
  }

let clamp_class p = if p < 0 then 0 else if p >= max_class then max_class - 1 else p

let set_slo t ~priority ~bound_ns =
  if priority < 0 || priority >= max_class then invalid_arg "Metrics.set_slo: class out of range";
  if bound_ns <= 0 then invalid_arg "Metrics.set_slo: non-positive bound";
  t.slo_bound_ns.(priority) <- bound_ns

let slo_bound t ~priority = t.slo_bound_ns.(clamp_class priority)
let class_completed t ~priority = t.slo_completed.(clamp_class priority)

(* Attainment is exact (per-flow comparison against the bound), not read
   off the quantized histogram; vacuously 1 before any completion. *)
let slo_attainment t ~priority =
  let c = clamp_class priority in
  if t.slo_completed.(c) = 0 then 1.0
  else float_of_int t.slo_within.(c) /. float_of_int t.slo_completed.(c)

let class_percentile t ~priority p =
  let h = t.fct_hist.(clamp_class priority) in
  if h.total = 0 then 0.0 else hist_percentile h p

let note_rejoin t ~node ~start ~finish =
  if finish < start then invalid_arg "Metrics.note_rejoin: finish < start";
  t.rejoins <- (node, start, finish) :: t.rejoins

let rejoin_samples t = List.rev t.rejoins

let set_goodput_bucket t ~bucket_ns =
  if bucket_ns <= 0 then invalid_arg "Metrics.set_goodput_bucket";
  t.bucket_ns <- bucket_ns

let goodput_series t =
  Array.map
    (fun (i, b) -> (i * t.bucket_ns, b))
    (Util.Itbl.sorted_bindings t.buckets)

let add_flow ?(priority = 0) t ~id ~src ~dst ~size ~arrival_ns =
  if Util.Itbl.mem t.flows id then invalid_arg "Metrics.add_flow: duplicate id";
  Util.Itbl.replace t.flows id
    {
      id;
      src;
      dst;
      size;
      priority;
      arrival_ns;
      start_tx_ns = -1;
      delivered = 0;
      finish_ns = -1;
      next_seq = 0;
      reorder_max = 0;
      ooo = None;
    }

let find t id =
  match Util.Itbl.find_opt t.flows id with
  | Some f -> f
  | None -> invalid_arg "Metrics: unknown flow"

let note_first_tx t ~id ~now =
  let f = find t id in
  if f.start_tx_ns < 0 then f.start_tx_ns <- now

let buffered f seq = match f.ooo with Some ooo -> Util.Itbl.mem ooo seq | None -> false

let record_delivery t ~id ~seq ~payload ~now =
  let f = find t id in
  if f.finish_ns >= 0 then false
  else if seq < f.next_seq || buffered f seq then false (* duplicate *)
  else begin
    if t.bucket_ns > 0 then begin
      (* Goodput counts every newly accepted payload byte, in-order or not. *)
      let i = now / t.bucket_ns in
      let cur = Option.value ~default:0 (Util.Itbl.find_opt t.buckets i) in
      Util.Itbl.replace t.buckets i (cur + payload)
    end;
    if seq = f.next_seq then begin
      f.delivered <- f.delivered + payload;
      f.next_seq <- f.next_seq + 1;
      (* Drain any contiguous out-of-order suffix. *)
      match f.ooo with
      | None -> ()
      | Some ooo ->
          let continue = ref true in
          while !continue do
            match Util.Itbl.find_opt ooo f.next_seq with
            | Some p ->
                Util.Itbl.remove ooo f.next_seq;
                f.delivered <- f.delivered + p;
                f.next_seq <- f.next_seq + 1
            | None -> continue := false
          done
    end
    else begin
      let ooo =
        match f.ooo with
        | Some ooo -> ooo
        | None ->
            let ooo = Util.Itbl.create 8 in
            f.ooo <- Some ooo;
            ooo
      in
      Util.Itbl.replace ooo seq payload;
      if Util.Itbl.length ooo > f.reorder_max then f.reorder_max <- Util.Itbl.length ooo
    end;
    if f.delivered >= f.size && f.finish_ns < 0 then begin
      f.finish_ns <- now;
      f.ooo <- None;
      t.completed <- t.completed + 1;
      let c = clamp_class f.priority in
      let fct = now - f.arrival_ns in
      hist_record t.fct_hist.(c) fct;
      t.slo_completed.(c) <- t.slo_completed.(c) + 1;
      if t.slo_bound_ns.(c) = 0 || fct <= t.slo_bound_ns.(c) then
        t.slo_within.(c) <- t.slo_within.(c) + 1;
      true
    end
    else false
  end

let complete _t f = f.finish_ns >= 0
let completed_count t = t.completed
(* Sorted by flow id so every derived series (and any JSON report built
   from it) is byte-stable across runs. *)
let all t = Array.to_list (Util.Itbl.sorted_values t.flows)

let fct_ns f =
  if f.finish_ns < 0 then invalid_arg "Metrics.fct_ns: incomplete flow";
  f.finish_ns - f.arrival_ns

let throughput_gbps f =
  let fct = fct_ns f in
  if fct <= 0 then invalid_arg "Metrics.throughput_gbps: zero-duration flow";
  Util.Units.gbps (float_of_int (8 * f.size) /. float_of_int fct)

let in_band ?(min_size = 0) ?(max_size = max_int) f = f.size >= min_size && f.size < max_size

let fcts_us ?min_size ?max_size ?priority t =
  let want f = match priority with None -> true | Some p -> f.priority = p in
  let xs =
    List.filter_map
      (fun f ->
        if f.finish_ns >= 0 && in_band ?min_size ?max_size f && want f then
          Some (float_of_int (fct_ns f) /. 1000.0)
        else None)
      (all t)
  in
  Array.of_list xs

let throughputs_gbps ?min_size ?max_size t =
  let xs =
    List.filter_map
      (fun f ->
        if f.finish_ns >= 0 && in_band ?min_size ?max_size f then Some (throughput_gbps f)
        else None)
      (all t)
  in
  Array.of_list xs
