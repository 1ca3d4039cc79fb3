let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let percentile_sorted ys p =
  let n = Array.length ys in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (ys.(lo) *. (1.0 -. frac)) +. (ys.(hi) *. frac)
  end

let percentile xs p = percentile_sorted (sorted_copy xs) p

let median xs = percentile xs 50.0

let cdf_points = 50

let cdf xs =
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n = 0 then []
  else begin
    let step = max 1 (n / cdf_points) in
    let acc = ref [] in
    let i = ref (step - 1) in
    while !i < n do
      acc := (ys.(!i), float_of_int (!i + 1) /. float_of_int n) :: !acc;
      i := !i + step
    done;
    (* Always include the maximum so the CDF reaches 1. *)
    let acc =
      match !acc with
      | (v, _) :: _ when v = ys.(n - 1) -> !acc
      | _ -> (ys.(n - 1), 1.0) :: !acc
    in
    List.rev acc
  end

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (sq /. float_of_int (n - 1))
  end

type ewma = { alpha : float; mutable value : float; mutable initialized : bool }

let ewma_create ~alpha =
  assert (alpha > 0.0 && alpha <= 1.0);
  { alpha; value = 0.0; initialized = false }

let ewma_update e x =
  if e.initialized then e.value <- (e.alpha *. x) +. ((1.0 -. e.alpha) *. e.value)
  else begin
    e.value <- x;
    e.initialized <- true
  end

let ewma_value e = e.value

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
  min : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then
    { count = 0; mean = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0; min = 0.0 }
  else begin
    let ys = sorted_copy xs in
    {
      count = n;
      mean = mean xs;
      p50 = percentile_sorted ys 50.0;
      p95 = percentile_sorted ys 95.0;
      p99 = percentile_sorted ys 99.0;
      p999 = percentile_sorted ys 99.9;
      max = ys.(n - 1);
      min = ys.(0);
    }
  end
