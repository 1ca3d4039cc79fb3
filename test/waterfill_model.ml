(* Reference model for Waterfill.Inc's recompute, with none of its
   per-round economy: every recompute rebuilds the whole link -> rows
   transpose, a round skips the rows of other rounds by their rank
   ([round_of]), and each round resets every per-link buffer with
   [Array.fill]. The differential test in test_incremental.ml checks Inc
   against it bit for bit (every rate under [Int64.bits_of_float]) and
   count for count ([Waterfill.dbg]'s pushes, pops and valid pops).

   It is fed through Inc's public API only. Inc's rates depend on its row
   order, which sets the order of every float sum and of every heap push,
   so the model keeps its own mirror of it: an opened flow is appended,
   and a closed flow's row is filled by the last row. The heap is Inc's,
   sift for sift, so equal keys pop in the same order. *)

module U = Util.Units

type flow_row = {
  id : int;
  weight : float;
  priority : int;
  mutable demand : float;  (* nan = network-limited *)
  mutable row : Routing.row;
}

type t = {
  capacities : float array;
  mutable headroom : float;
  mutable reserve_prio : int;
  mutable reserve_frac : float;
  index : (int, int) Hashtbl.t;  (* flow id -> row *)
  mutable rows : flow_row array;
  mutable n : int;
  mutable rates : float array;  (* per row, from the last [allocate] *)
  mutable hkeys : float array;
  mutable hvals : int array;
  mutable hlen : int;
}

(* What one [allocate] counted, as [Waterfill.dbg] names them. *)
type counts = { push : int; pops : int; valid : int }

let eps = 1e-9

let create ~headroom ~capacities =
  {
    capacities = U.floats_of capacities;
    headroom = (headroom : U.fraction :> float);
    reserve_prio = 0;
    reserve_frac = 0.0;
    index = Hashtbl.create 64;
    rows = [||];
    n = 0;
    rates = [||];
    hkeys = Array.make 64 0.0;
    hvals = Array.make 64 0;
    hlen = 0;
  }

let set_headroom m h = m.headroom <- (h : U.fraction :> float)

let set_class_reserve m ~priority ~reserve =
  m.reserve_prio <- priority;
  m.reserve_frac <- (reserve : U.fraction :> float)

let demand_raw = function Some d -> (d : U.byte_rate :> float) | None -> Float.nan

let add_flow ?(weight = 1.0) ?(priority = 0) ?demand m ~id row =
  let f = { id; weight; priority; demand = demand_raw demand; row } in
  if m.n = Array.length m.rows then begin
    m.rows <- Array.append m.rows (Array.make (max 16 m.n) f);
    m.rates <- Array.append m.rates (Array.make (max 16 m.n) 0.0)
  end;
  m.rows.(m.n) <- f;
  m.rates.(m.n) <- 0.0;
  Hashtbl.replace m.index id m.n;
  m.n <- m.n + 1

let remove_flow m ~id =
  let r = Hashtbl.find m.index id in
  Hashtbl.remove m.index id;
  let last = m.n - 1 in
  if r <> last then begin
    m.rows.(r) <- m.rows.(last);
    m.rates.(r) <- m.rates.(last);
    Hashtbl.replace m.index m.rows.(r).id r
  end;
  m.n <- last

let set_demand m ~id demand = m.rows.(Hashtbl.find m.index id).demand <- demand_raw demand
let set_links m ~id row = m.rows.(Hashtbl.find m.index id).row <- row
let rate m ~id = m.rates.(Hashtbl.find m.index id)

(* -- Inc's heap: float keys, int payloads ----------------------------------- *)

let heap_push m key v =
  if m.hlen = Array.length m.hkeys then begin
    m.hkeys <- Array.append m.hkeys (Array.make m.hlen 0.0);
    m.hvals <- Array.append m.hvals (Array.make m.hlen 0)
  end;
  m.hkeys.(m.hlen) <- key;
  m.hvals.(m.hlen) <- v;
  m.hlen <- m.hlen + 1;
  let i = ref (m.hlen - 1) in
  while !i > 0 && m.hkeys.((!i - 1) / 2) > m.hkeys.(!i) do
    let p = (!i - 1) / 2 in
    let k = m.hkeys.(p) and v' = m.hvals.(p) in
    m.hkeys.(p) <- m.hkeys.(!i);
    m.hvals.(p) <- m.hvals.(!i);
    m.hkeys.(!i) <- k;
    m.hvals.(!i) <- v';
    i := p
  done

(* [Some (key, payload)] of the smallest key, [None] when empty. *)
let heap_pop m =
  if m.hlen = 0 then None
  else begin
    let key = m.hkeys.(0) and v = m.hvals.(0) in
    m.hlen <- m.hlen - 1;
    if m.hlen > 0 then begin
      m.hkeys.(0) <- m.hkeys.(m.hlen);
      m.hvals.(0) <- m.hvals.(m.hlen);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < m.hlen && m.hkeys.(l) < m.hkeys.(!s) then s := l;
        if r < m.hlen && m.hkeys.(r) < m.hkeys.(!s) then s := r;
        if !s = !i then continue := false
        else begin
          let k = m.hkeys.(!s) and v' = m.hvals.(!s) in
          m.hkeys.(!s) <- m.hkeys.(!i);
          m.hvals.(!s) <- m.hvals.(!i);
          m.hkeys.(!i) <- k;
          m.hvals.(!i) <- v';
          i := !s
        end
      done
    end;
    Some (key, v)
  end

(* -- the recompute ---------------------------------------------------------- *)

let allocate m =
  let nl = Array.length m.capacities in
  let nf = m.n in
  let rows = Array.sub m.rows 0 nf in
  let push = ref 0 and pops = ref 0 and valid = ref 0 in
  let remaining = Array.map (fun c -> c *. (1.0 -. m.headroom)) m.capacities in
  let rates = Array.make nf 0.0 and frozen = Array.make nf false in
  (* Rows by priority, in row order within one: the rounds. *)
  let order = Array.init nf Fun.id in
  Array.stable_sort (fun a b -> Int.compare rows.(a).priority rows.(b).priority) order;
  let round_of = Array.make nf 0 in
  for k = 1 to nf - 1 do
    let r = order.(k) and prev = order.(k - 1) in
    round_of.(r) <- (round_of.(prev) + if rows.(r).priority = rows.(prev).priority then 0 else 1)
  done;
  (* The transpose over every row of every round, in ascending row order. *)
  let on_link = Array.make nl [] in
  for r = nf - 1 downto 0 do
    let links = rows.(r).row.links in
    for j = Array.length links - 1 downto 0 do
      on_link.(links.(j)) <- r :: on_link.(links.(j))
    done
  done;
  let wsum = Array.make nl 0.0 and last_t = Array.make nl 0.0 and queued = Array.make nl false in
  let round_inc ~round lo hi =
    Array.fill wsum 0 nl 0.0;
    Array.fill last_t 0 nl 0.0;
    Array.fill queued 0 nl false;
    m.hlen <- 0;
    let settle l lvl =
      if lvl > last_t.(l) then begin
        remaining.(l) <- Float.max 0.0 (remaining.(l) -. (wsum.(l) *. (lvl -. last_t.(l))));
        last_t.(l) <- lvl
      end
    in
    let sat_level l =
      if wsum.(l) > eps then last_t.(l) +. (remaining.(l) /. wsum.(l)) else infinity
    in
    for k = lo to hi - 1 do
      let f = rows.(order.(k)) in
      Array.iteri
        (fun j l -> wsum.(l) <- wsum.(l) +. (f.weight *. (f.row.fracs.(j) : U.fraction :> float)))
        f.row.links
    done;
    for k = lo to hi - 1 do
      let r = order.(k) in
      Array.iter
        (fun l ->
          if not queued.(l) then begin
            queued.(l) <- true;
            incr push;
            heap_push m (sat_level l) l
          end)
        rows.(r).row.links;
      if not (Float.is_nan rows.(r).demand) then
        heap_push m (rows.(r).demand /. rows.(r).weight) (-(r + 1))
    done;
    let active = ref (hi - lo) in
    let freeze r lvl =
      if not frozen.(r) then begin
        let f = rows.(r) in
        frozen.(r) <- true;
        rates.(r) <- f.weight *. lvl;
        decr active;
        Array.iteri
          (fun j l ->
            settle l lvl;
            wsum.(l) <-
              Float.max 0.0 (wsum.(l) -. (f.weight *. (f.row.fracs.(j) : U.fraction :> float))))
          f.row.links
      end
    in
    while !active > 0 do
      match heap_pop m with
      | None ->
          for k = lo to hi - 1 do
            freeze order.(k) 0.0
          done
      | Some (key, l) when l >= 0 ->
          incr pops;
          let cur = sat_level l in
          if cur = infinity then ()
          else if cur > key +. (1e-12 *. (1.0 +. abs_float key)) then begin
            incr push;
            heap_push m cur l
          end
          else begin
            incr valid;
            settle l cur;
            List.iter (fun r -> if round_of.(r) = round then freeze r cur) on_link.(l)
          end
      | Some (key, v) -> freeze (-v - 1) key
    done
  in
  let k0 = ref 0 and round = ref 0 and reserved = ref false in
  while !k0 < nf do
    let p = rows.(order.(!k0)).priority in
    if (not !reserved) && m.reserve_frac > 0.0 && p >= m.reserve_prio then begin
      for l = 0 to nl - 1 do
        remaining.(l) <- Float.max 0.0 (remaining.(l) -. (m.reserve_frac *. m.capacities.(l)))
      done;
      reserved := true
    end;
    let k1 = ref (!k0 + 1) in
    while !k1 < nf && rows.(order.(!k1)).priority = p do
      incr k1
    done;
    round_inc ~round:!round !k0 !k1;
    incr round;
    k0 := !k1
  done;
  Array.blit rates 0 m.rates 0 nf;
  { push = !push; pops = !pops; valid = !valid }

(* -- the fresh-state reference ------------------------------------------ *)

(* A fresh [Inc] run once over [flows], flow [i] keyed by slot [i] ([id]
   is opaque and may repeat): the rates that refilled and held allocators
   are checked against, themselves checked against [allocate_reference]. *)
let fresh_rates ?headroom ~capacities flows =
  let module W = Congestion.Waterfill in
  let inc = W.Inc.create ?headroom ~capacities () in
  Array.iteri
    (fun i (f : W.flow) ->
      W.Inc.add_flow ~weight:f.weight ~priority:f.priority ?demand:f.demand inc ~id:i f.row)
    flows;
  W.Inc.allocate inc;
  Array.init (Array.length flows) (fun i -> W.Inc.rate inc ~id:i)
