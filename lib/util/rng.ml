(* SplitMix64. The state lives unboxed in an 8-byte buffer: a
   [mutable int64] record field would box a fresh state on every draw, and
   under the dev profile's [-opaque] no caller sees through the call to
   unbox it. [mix64] and [bits64] are inlined into every draw below, so
   [int] and [below] allocate nothing; only values returned as [int64] or
   [float] are boxed at the module boundary. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy t = Bytes.copy t

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (mix64 (bits64 t))

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value is a non-negative OCaml int. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let[@inline] float t bound =
  (* 53 uniform bits in [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let below t p = float t 1.0 < p

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let categorical t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  assert (total > 0.0);
  let x = float t total in
  let n = Array.length w in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0
