(* Tests for lib/util: deterministic RNG, binary heap, statistics. *)

let tc name f = Alcotest.test_case name `Quick f

let check_float = Alcotest.(check (float 1e-9))

(* -- rng ----------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let rng_seeds_differ () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Util.Rng.bits64 a = Util.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let rng_int_range () =
  let rng = Util.Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let rng_int_covers_all () =
  let rng = Util.Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Util.Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let rng_float_range () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let rng_split_independent () =
  let a = Util.Rng.create 11 in
  let b = Util.Rng.split a in
  let x = Util.Rng.bits64 a and y = Util.Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" true (x <> y)

let rng_permutation_valid () =
  let rng = Util.Rng.create 13 in
  for _ = 1 to 50 do
    let p = Util.Rng.permutation rng 20 in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted
  done

let rng_exponential_mean () =
  let rng = Util.Rng.create 17 in
  let n = 50_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Util.Rng.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.15)

let rng_pareto_support () =
  let rng = Util.Rng.create 19 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.pareto rng ~shape:1.05 ~scale:2.0 in
    Alcotest.(check bool) "x >= scale" true (v >= 2.0)
  done

let rng_categorical_weights () =
  let rng = Util.Rng.create 23 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Util.Rng.categorical rng [| 1.0; 2.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac1 = float_of_int counts.(1) /. 30_000.0 in
  Alcotest.(check bool) "middle weight dominates" true (abs_float (frac1 -. 0.5) < 0.03)

let rng_pick_uniform () =
  let rng = Util.Rng.create 29 in
  let counts = Hashtbl.create 4 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 9000 do
    let v = Util.Rng.pick rng arr in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Array.iter
    (fun v ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts v) in
      Alcotest.(check bool) "roughly uniform" true (c > 2500 && c < 3500))
    arr

(* The boxed SplitMix64 that the unboxed generator replaced, kept verbatim
   as the reference: the property below pins the new stream to it draw for
   draw, so no seeded run anywhere can have moved. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }
  let copy t = { state = t.state }

  let bits64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t =
    let s = bits64 t in
    { state = mix64 s }

  let int t bound =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    r mod bound

  let float t bound =
    let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    r /. 9007199254740992.0 *. bound

  let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0
end

type rng_op =
  | Bits64
  | Int of int
  | Float of float
  | Below of float
  | Bool
  | Split
  | Copy

let show_rng_op = function
  | Bits64 -> "bits64"
  | Int b -> Printf.sprintf "int %d" b
  | Float x -> Printf.sprintf "float %h" x
  | Below p -> Printf.sprintf "below %h" p
  | Bool -> "bool"
  | Split -> "split"
  | Copy -> "copy"

(* Each op names the generator it draws from (modulo the generators alive
   so far); split and copy add a generator, so children and copies are
   exercised as much as the root. *)
let rng_program =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, return Bits64);
        (3, map (fun b -> Int b) (oneof [ 1 -- 16; 1 -- max_int ]));
        (3, map (fun x -> Float x) (float_bound_inclusive 1e6));
        (3, map (fun p -> Below p) (oneof [ float_bound_inclusive 1.0; oneofl [ 0.0; 0.01; 1.0 ] ]));
        (2, return Bool);
        (1, return Split);
        (1, return Copy);
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed
        (String.concat "; "
           (List.map (fun (i, op) -> Printf.sprintf "%d:%s" i (show_rng_op op)) ops)))
    (pair int (list_size (0 -- 200) (pair (0 -- 7) op)))

let qcheck_rng_matches_boxed_reference =
  QCheck.Test.make ~name:"unboxed generator = boxed reference, draw for draw" ~count:300
    rng_program
    (fun (seed, ops) ->
      let pool = ref [| (Boxed_rng.create seed, Util.Rng.create seed) |] in
      let add g = pool := Array.append !pool [| g |] in
      let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      List.for_all
        (fun (i, op) ->
          let r, n = !pool.(i mod Array.length !pool) in
          match op with
          | Bits64 -> Int64.equal (Boxed_rng.bits64 r) (Util.Rng.bits64 n)
          | Int b -> Boxed_rng.int r b = Util.Rng.int n b
          | Float x -> same_float (Boxed_rng.float r x) (Util.Rng.float n x)
          | Below p -> (Boxed_rng.float r 1.0 < p) = Util.Rng.below n p
          | Bool -> Boxed_rng.bool r = Util.Rng.bool n
          | Split ->
              add (Boxed_rng.split r, Util.Rng.split n);
              true
          | Copy ->
              add (Boxed_rng.copy r, Util.Rng.copy n);
              true)
        ops
      && Array.for_all (fun (r, n) -> Int64.equal (Boxed_rng.bits64 r) (Util.Rng.bits64 n)) !pool)

(* The per-hop chaos draws: [below] and [int] must not box the state or
   the result. *)
let rng_draws_allocate_nothing () =
  let rng = Util.Rng.create 43 in
  let n = 100_000 in
  let per_draw f =
    let before = Gc.minor_words () in
    f ();
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let hits = ref 0 and sum = ref 0 in
  let below = per_draw (fun () -> for _ = 1 to n do if Util.Rng.below rng 0.25 then incr hits done) in
  let int = per_draw (fun () -> for _ = 1 to n do sum := !sum + Util.Rng.int rng 6 done) in
  Alcotest.(check bool) (Printf.sprintf "below: %.4f words/draw" below) true (below < 0.01);
  Alcotest.(check bool) (Printf.sprintf "int: %.4f words/draw" int) true (int < 0.01);
  Alcotest.(check bool) "below draws with p" true (!hits > 20_000 && !hits < 30_000);
  Alcotest.(check bool) "int draws in range" true (!sum >= 0 && !sum <= 5 * n)

(* -- heap ---------------------------------------------------------------- *)

let heap_ordering () =
  let h = Util.Heap.create () in
  let rng = Util.Rng.create 31 in
  for _ = 1 to 1000 do
    Util.Heap.push h (Util.Rng.int rng 500) ()
  done;
  let last = ref min_int in
  let count = ref 0 in
  let rec drain () =
    match Util.Heap.pop h with
    | None -> ()
    | Some (p, ()) ->
        Alcotest.(check bool) "non-decreasing" true (p >= !last);
        last := p;
        incr count;
        drain ()
  in
  drain ();
  Alcotest.(check int) "all popped" 1000 !count

let heap_fifo_on_ties () =
  let h = Util.Heap.create () in
  Util.Heap.push h 5 "first";
  Util.Heap.push h 5 "second";
  Util.Heap.push h 5 "third";
  let pop () = match Util.Heap.pop h with Some (_, v) -> v | None -> assert false in
  Alcotest.(check string) "insertion order" "first" (pop ());
  Alcotest.(check string) "insertion order" "second" (pop ());
  Alcotest.(check string) "insertion order" "third" (pop ())

let heap_peek_no_remove () =
  let h = Util.Heap.create () in
  Util.Heap.push h 1 "x";
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "x")) (Util.Heap.peek h);
  Alcotest.(check int) "size unchanged" 1 (Util.Heap.size h)

let heap_empty () =
  let h : unit Util.Heap.t = Util.Heap.create () in
  Alcotest.(check bool) "is_empty" true (Util.Heap.is_empty h);
  Alcotest.(check (option (pair int unit))) "pop empty" None (Util.Heap.pop h)

let heap_interleaved () =
  let h = Util.Heap.create () in
  Util.Heap.push h 10 10;
  Util.Heap.push h 5 5;
  Alcotest.(check (option (pair int int))) "min first" (Some (5, 5)) (Util.Heap.pop h);
  Util.Heap.push h 1 1;
  Alcotest.(check (option (pair int int))) "new min" (Some (1, 1)) (Util.Heap.pop h);
  Alcotest.(check (option (pair int int))) "remaining" (Some (10, 10)) (Util.Heap.pop h)

(* -- stats --------------------------------------------------------------- *)

let stats_percentile_exact () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0 = min" 1.0 (Util.Stats.percentile xs 0.0);
  check_float "p100 = max" 5.0 (Util.Stats.percentile xs 100.0);
  check_float "p50 = median" 3.0 (Util.Stats.percentile xs 50.0);
  check_float "p25 interpolates" 2.0 (Util.Stats.percentile xs 25.0)

let stats_percentile_unsorted () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "sorts internally" 3.0 (Util.Stats.percentile xs 50.0)

let stats_mean_stddev () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Util.Stats.mean xs);
  Alcotest.(check bool) "stddev sample" true (abs_float (Util.Stats.stddev xs -. 2.138) < 0.01)

let stats_cdf_monotone () =
  let rng = Util.Rng.create 37 in
  let xs = Array.init 500 (fun _ -> Util.Rng.float rng 10.0) in
  let cdf = Util.Stats.cdf xs in
  let rec check_mono = function
    | (v1, f1) :: ((v2, f2) :: _ as rest) ->
        Alcotest.(check bool) "values non-decreasing" true (v1 <= v2);
        Alcotest.(check bool) "fractions non-decreasing" true (f1 <= f2);
        check_mono rest
    | _ -> ()
  in
  check_mono cdf;
  (match List.rev cdf with
  | (_, last) :: _ -> check_float "reaches 1" 1.0 last
  | [] -> Alcotest.fail "empty cdf")

let stats_ewma () =
  let e = Util.Stats.ewma_create ~alpha:0.5 in
  check_float "zero before update" 0.0 (Util.Stats.ewma_value e);
  Util.Stats.ewma_update e 10.0;
  check_float "first sample taken whole" 10.0 (Util.Stats.ewma_value e);
  Util.Stats.ewma_update e 20.0;
  check_float "smoothed" 15.0 (Util.Stats.ewma_value e)

let stats_summary_empty () =
  let s = Util.Stats.summarize [||] in
  Alcotest.(check int) "count" 0 s.Util.Stats.count;
  check_float "mean" 0.0 s.Util.Stats.mean;
  check_float "p999" 0.0 s.Util.Stats.p999

let stats_summary_p999 () =
  (* 0..999: rank 99.9 * 999 / 100 = 998.001 interpolates between the two
     largest samples; p99 sits well below it on a uniform ramp. *)
  let xs = Array.init 1000 float_of_int in
  let s = Util.Stats.summarize xs in
  check_float "p999 interpolated" 998.001 s.Util.Stats.p999;
  Alcotest.(check bool) "p99 <= p999 <= max" true
    (s.Util.Stats.p99 <= s.Util.Stats.p999 && s.Util.Stats.p999 <= s.Util.Stats.max);
  let one = Util.Stats.summarize [| 7.0 |] in
  check_float "single sample" 7.0 one.Util.Stats.p999

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:500
    QCheck.(pair (array_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0)) (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      QCheck.assume (Array.length xs > 0);
      let v = Util.Stats.percentile xs p in
      let mn = Array.fold_left min xs.(0) xs and mx = Array.fold_left max xs.(0) xs in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let qcheck_percentile_monotone =
  (* Monotone in p, and exact at the band edges: p = 100*k/(n-1) must hit
     the k-th sorted sample (the interpolation weight is exactly 0 there),
     pinning the rank convention the histogram percentiles mirror. *)
  QCheck.Test.make ~name:"percentile monotone in p, exact at band edges" ~count:300
    QCheck.(array_of_size Gen.(2 -- 40) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (Array.length xs >= 2);
      let n = Array.length xs in
      let ys = Array.copy xs in
      Array.sort compare ys;
      let mono = ref true in
      let prev = ref (Util.Stats.percentile xs 0.0) in
      for i = 1 to 20 do
        let v = Util.Stats.percentile xs (5.0 *. float_of_int i) in
        if v < !prev -. 1e-9 then mono := false;
        prev := v
      done;
      let edges = ref true in
      for k = 0 to n - 1 do
        let p = 100.0 *. float_of_int k /. float_of_int (n - 1) in
        if abs_float (Util.Stats.percentile xs p -. ys.(k)) > 1e-6 *. (1.0 +. ys.(k))
        then edges := false
      done;
      !mono && !edges)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap pops = sorted input" ~count:300
    QCheck.(list (int_bound 10_000))
    (fun xs ->
      let h = Util.Heap.create () in
      List.iter (fun x -> Util.Heap.push h x x) xs;
      let rec drain acc =
        match Util.Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.sort compare xs)

(* -- int-keyed table ------------------------------------------------------- *)

type itbl_op = Replace of int * int | Remove of int | Find of int | Mem of int | Filter | Reset

let itbl_op_print = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Filter -> "filter"
  | Reset -> "reset"

(* Small keys, and Replicas' buffer keys [seq * 16384 + w], which share
   their low bits. *)
let itbl_ops =
  let open QCheck.Gen in
  let key =
    oneof [ int_bound 64; map2 (fun seq w -> (seq * 16384) + w) (int_bound 300) (int_bound 7) ]
  in
  list_size (int_bound 500)
    (frequency
       [
         (8, map2 (fun k v -> Replace (k, v)) key (int_bound 1000));
         (4, map (fun k -> Remove k) key);
         (4, map (fun k -> Find k) key);
         (2, map (fun k -> Mem k) key);
         (1, return Filter);
         (1, return Reset);
       ])

let qcheck_itbl_matches_hashtbl =
  QCheck.Test.make ~name:"Itbl = Hashtbl model, sorted views included" ~count:300
    (QCheck.make ~print:(QCheck.Print.list itbl_op_print) itbl_ops)
    (fun ops ->
      let t = Util.Itbl.create 4 and m = Hashtbl.create 4 in
      let keep k v = if (k + v) land 1 = 0 then None else Some (v + 1) in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Util.Itbl.replace t k v;
              Hashtbl.replace m k v;
              true
          | Remove k ->
              Util.Itbl.remove t k;
              Hashtbl.remove m k;
              true
          | Find k ->
              Util.Itbl.find_opt t k = Hashtbl.find_opt m k
              && (match Util.Itbl.find t k with v -> Some v | exception Not_found -> None)
                 = Hashtbl.find_opt m k
          | Mem k -> Util.Itbl.mem t k = Hashtbl.mem m k
          | Filter ->
              Util.Itbl.filter_map_inplace keep t;
              Hashtbl.filter_map_inplace keep m;
              true
          | Reset ->
              Util.Itbl.reset t;
              Hashtbl.reset m;
              true)
          && Util.Itbl.length t = Hashtbl.length m)
        ops
      &&
      let want = Util.Tbl.sorted_bindings ~cmp:Int.compare m in
      let walked = ref [] in
      Util.Itbl.iter_sorted (fun k v -> walked := (k, v) :: !walked) t;
      Util.Itbl.sorted_bindings t = want
      && Util.Itbl.sorted_keys t = Array.map fst want
      && Util.Itbl.sorted_values t = Array.map snd want
      && Array.of_list (List.rev !walked) = want
      && Util.Itbl.fold_sorted (fun k v acc -> (k, v) :: acc) t [] = List.rev (Array.to_list want))

(* -- units ---------------------------------------------------------------- *)

module U = Util.Units

(* The combinators advertise themselves as exactly their raw-float
   formulas; anything weaker would shift benchmark trajectories. So the
   properties compare IEEE bit patterns, not epsilons — NaN payloads,
   signed zeros, infinities and subnormals included. *)
let bits = Int64.bits_of_float

let same_bits a b = Int64.equal (bits a) (bits b)

let any_float =
  QCheck.float (* the qcheck float generator includes nan, infinities and 0.0 *)

let qcheck_drain_is_raw_mul =
  QCheck.Test.make ~name:"drain ~rate ~dt = rate *. dt (bit-for-bit)" ~count:1000
    QCheck.(pair any_float any_float)
    (fun (r, d) ->
      same_bits (U.to_float (U.drain ~rate:(U.byte_rate r) ~dt:(U.ns d))) (r *. d))

let qcheck_rate_of_is_raw_div =
  QCheck.Test.make ~name:"rate_of ~amount ~dt = amount /. dt (bit-for-bit)" ~count:1000
    QCheck.(pair any_float any_float)
    (fun (a, d) ->
      same_bits (U.to_float (U.rate_of ~amount:(U.bytes a) ~dt:(U.ns d))) (a /. d))

let qcheck_scale_is_raw_mul =
  QCheck.Test.make ~name:"scale_by_fraction q f = q *. f (bit-for-bit)" ~count:1000
    QCheck.(pair any_float any_float)
    (fun (q, f) ->
      same_bits (U.to_float (U.scale_by_fraction (U.gbps q) (U.fraction f))) (q *. f))

let qcheck_fill_time_and_frac =
  QCheck.Test.make ~name:"fill_time and frac_of are raw divisions (bit-for-bit)" ~count:1000
    QCheck.(pair any_float any_float)
    (fun (a, b) ->
      same_bits (U.to_float (U.fill_time ~amount:(U.bytes a) ~rate:(U.byte_rate b))) (a /. b)
      && same_bits (U.to_float (U.frac_of ~num:(U.bytes a) ~den:(U.bytes b))) (a /. b))

let qcheck_rate_conversions =
  QCheck.Test.make ~name:"gbps <-> byte_rate are *. 8.0 / /. 8.0 (bit-for-bit)" ~count:1000
    any_float
    (fun x ->
      same_bits (U.to_float (U.byte_rate_of_gbps (U.gbps x))) (x /. 8.0)
      && same_bits (U.to_float (U.gbps_of_byte_rate (U.byte_rate x))) (x *. 8.0)
      && same_bits (U.to_float (U.bits_of_bytes (U.bytes x))) (x *. 8.0)
      && same_bits (U.to_float (U.bytes_of_bits (U.bits x))) (x /. 8.0))

let qcheck_same_unit_algebra =
  QCheck.Test.make ~name:"same-unit algebra mirrors float ops (bit-for-bit)" ~count:1000
    QCheck.(pair any_float any_float)
    (fun (a, b) ->
      let qa = U.bytes a and qb = U.bytes b in
      same_bits (U.to_float (U.add qa qb)) (a +. b)
      && same_bits (U.to_float (U.sub qa qb)) (a -. b)
      && same_bits (U.to_float (U.min_q qa qb)) (Float.min a b)
      && same_bits (U.to_float (U.max_q qa qb)) (Float.max a b)
      && U.compare_q qa qb = Float.compare a b)

let units_views_are_zero_copy () =
  (* floats_of / of_floats alias the same backing array: a write through
     one view is visible through the other, proving no copy happened. *)
  let typed = U.of_floats [| 1.0; 2.0; 3.0 |] in
  let raw = U.floats_of typed in
  raw.(1) <- 42.0;
  check_float "write via raw view lands in typed view" 42.0 (U.to_float typed.(1));
  let back = U.of_floats raw in
  raw.(2) <- 7.0;
  check_float "re-blessing still aliases" 7.0 (U.to_float back.(2))

let units_ticks_counter () =
  let t = U.ticks 41 in
  Alcotest.(check int) "tick_succ increments" 42 (U.ticks_to_int (U.tick_succ t));
  check_float "zero is 0.0" 0.0 (U.to_float (U.zero : U.bytes))

(* -- arena ---------------------------------------------------------------- *)

(* Random alloc/free interleavings against a model map: values written into
   surviving records are never clobbered by allocation, recycling or pool
   growth, [alloc] hands back zeroed records, and the live count tracks the
   model exactly. *)
let qcheck_arena_roundtrip =
  QCheck.Test.make ~name:"alloc/free/reuse round-trips" ~count:200
    QCheck.(list (int_bound 999))
    (fun ops ->
      let a = Util.Arena.create ~capacity:2 ~width:3 () in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op mod 3 = 0 && Hashtbl.length live > 0 then begin
            (* lint: allow D3 — order-independent: commutative min over live handles *)
            let h = Hashtbl.fold (fun h _ m -> min h m) live max_int in
            ok := !ok && Util.Arena.get a h 1 = Hashtbl.find live h;
            Util.Arena.free a h;
            Hashtbl.remove live h;
            ok := !ok && not (Util.Arena.is_live a h)
          end
          else begin
            let h = Util.Arena.alloc a in
            ok := !ok && Util.Arena.get a h 1 = 0 && Util.Arena.is_live a h;
            Util.Arena.set a h 1 (op + 1);
            Hashtbl.replace live h (op + 1)
          end)
        ops;
      (* lint: allow D3 — order-independent: conjunction over all live bindings *)
      Hashtbl.iter (fun h v -> ok := !ok && Util.Arena.get a h 1 = v) live;
      !ok && Util.Arena.live a = Hashtbl.length live)

let arena_double_free_detected () =
  let a = Util.Arena.create ~width:2 () in
  let h = Util.Arena.alloc a in
  Util.Arena.free a h;
  Alcotest.check_raises "double free" (Invalid_argument "Arena.free: double free")
    (fun () -> Util.Arena.free a h);
  Alcotest.check_raises "out of range" (Invalid_argument "Arena.free: handle out of range")
    (fun () -> Util.Arena.free a (-1))

let arena_recycles_handles () =
  let a = Util.Arena.create ~capacity:4 ~width:2 () in
  let h0 = Util.Arena.alloc a in
  let h1 = Util.Arena.alloc a in
  Util.Arena.set a h1 0 42;
  Util.Arena.free a h1;
  (* LIFO free list: the next allocation reuses the freed record. *)
  Alcotest.(check int) "freed handle reused" h1 (Util.Arena.alloc a);
  Alcotest.(check int) "reused record zeroed" 0 (Util.Arena.get a h1 0);
  Util.Arena.free a h0;
  Util.Arena.free a h1;
  Alcotest.(check int) "live drained" 0 (Util.Arena.live a);
  Alcotest.(check int) "high water saw both" 2 (Util.Arena.high_water a)

let arena_ints_refcount () =
  let p = Util.Arena.Ints.create () in
  let s = Util.Arena.Ints.of_array p [| 7; 8; 9 |] in
  Alcotest.(check int) "length" 3 (Util.Arena.Ints.length p s);
  Alcotest.(check int) "contents" 8 (Util.Arena.Ints.get p s 1);
  Util.Arena.Ints.retain p s;
  Alcotest.(check int) "refcount 2" 2 (Util.Arena.Ints.refcount p s);
  Util.Arena.Ints.release p s;
  Util.Arena.Ints.release p s;
  Alcotest.(check int) "recycled" 0 (Util.Arena.Ints.live p);
  Alcotest.check_raises "double release"
    (Invalid_argument "Arena.Ints.release: double release") (fun () ->
      Util.Arena.Ints.release p s);
  (* Same length allocates from the free list: the block comes back. *)
  let s' = Util.Arena.Ints.of_array p [| 1; 2; 3 |] in
  Alcotest.(check int) "exact-fit block reused" s s';
  (* The empty slice is a pinned singleton: refcounting it is a no-op. *)
  let e = Util.Arena.Ints.of_array p [||] in
  Alcotest.(check int) "empty singleton" Util.Arena.Ints.empty e;
  Util.Arena.Ints.release p e;
  Util.Arena.Ints.release p e

let suites =
  [
    ( "util.units",
      [
        QCheck_alcotest.to_alcotest qcheck_drain_is_raw_mul;
        QCheck_alcotest.to_alcotest qcheck_rate_of_is_raw_div;
        QCheck_alcotest.to_alcotest qcheck_scale_is_raw_mul;
        QCheck_alcotest.to_alcotest qcheck_fill_time_and_frac;
        QCheck_alcotest.to_alcotest qcheck_rate_conversions;
        QCheck_alcotest.to_alcotest qcheck_same_unit_algebra;
        tc "array views are zero-copy aliases" units_views_are_zero_copy;
        tc "ticks counter" units_ticks_counter;
      ] );
    ( "util.rng",
      [
        tc "deterministic per seed" rng_deterministic;
        tc "different seeds differ" rng_seeds_differ;
        tc "int in range" rng_int_range;
        tc "int covers all values" rng_int_covers_all;
        tc "float in range" rng_float_range;
        tc "split independent" rng_split_independent;
        tc "permutation valid" rng_permutation_valid;
        tc "exponential mean" rng_exponential_mean;
        tc "pareto support" rng_pareto_support;
        tc "categorical follows weights" rng_categorical_weights;
        tc "pick roughly uniform" rng_pick_uniform;
        QCheck_alcotest.to_alcotest qcheck_rng_matches_boxed_reference;
        tc "below and int allocate nothing" rng_draws_allocate_nothing;
      ] );
    ( "util.heap",
      [
        tc "pops in priority order" heap_ordering;
        tc "fifo on equal priorities" heap_fifo_on_ties;
        tc "peek does not remove" heap_peek_no_remove;
        tc "empty heap" heap_empty;
        tc "interleaved push/pop" heap_interleaved;
        QCheck_alcotest.to_alcotest qcheck_heap_sorts;
      ] );
    ("util.itbl", [ QCheck_alcotest.to_alcotest qcheck_itbl_matches_hashtbl ]);
    ( "util.arena",
      [
        QCheck_alcotest.to_alcotest qcheck_arena_roundtrip;
        tc "double free detected" arena_double_free_detected;
        tc "freed handles recycled" arena_recycles_handles;
        tc "slice refcounting" arena_ints_refcount;
      ] );
    ( "util.stats",
      [
        tc "percentile exact points" stats_percentile_exact;
        tc "percentile sorts input" stats_percentile_unsorted;
        tc "mean and stddev" stats_mean_stddev;
        tc "cdf monotone, reaches 1" stats_cdf_monotone;
        tc "ewma smoothing" stats_ewma;
        tc "summary of empty array" stats_summary_empty;
        tc "summary p999 tail" stats_summary_p999;
        QCheck_alcotest.to_alcotest qcheck_percentile_bounds;
        QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
      ] );
  ]
