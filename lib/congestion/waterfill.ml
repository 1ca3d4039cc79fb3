(* Boundary types are Units-dimensioned (byte_rate / fraction, see the
   mli); the algorithms below unwrap once per use with the free [:> float]
   coercion and run on raw floats — identical code to the pre-Units
   version, bit for bit. *)
module U = Util.Units

type flow = {
  id : int;
  weight : float;
  priority : int;
  demand : U.byte_rate option;
  row : Routing.row;
}

let flow ?(weight = 1.0) ?(priority = 0) ?demand ~id row = { id; weight; priority; demand; row }

let eps = 1e-9

(* A row was validated where it was built; all that is left to check is
   O(1): that its links exist here. *)
let check_row ~nl (row : Routing.row) =
  if row.bound > nl then invalid_arg "Waterfill: link id out of range"

(* Priorities are the broadcast's 8-bit field. *)
let check_flow ~nl ~weight ~priority ~demand row =
  if weight <= 0.0 then invalid_arg "Waterfill: non-positive weight";
  if priority < 0 || priority > 255 then invalid_arg "Waterfill: priority outside 0..255";
  (match demand with
  | Some d when (d : U.byte_rate :> float) < 0.0 -> invalid_arg "Waterfill: negative demand"
  | _ -> ());
  check_row ~nl row

(* [f l frac] over a row's entries, in row order. *)
let iter_row f (row : Routing.row) =
  Array.iteri (fun j l -> f l (row.fracs.(j) : U.fraction :> float)) row.links

(* One priority round of progressive filling over [indices], mutating
   [remaining] capacity and writing into [rates]. *)
let fill_round ~remaining ~rates flows indices =
  let nl = Array.length remaining in
  let frozen = Array.make (Array.length flows) false in
  (* Per-link sum of weight * fraction over unfrozen flows of this round. *)
  let wsum = Array.make nl 0.0 in
  let on_link = Array.make nl [] in
  List.iter
    (fun i ->
      let f = flows.(i) in
      iter_row
        (fun l frac ->
          wsum.(l) <- wsum.(l) +. (f.weight *. frac);
          on_link.(l) <- i :: on_link.(l))
        f.row)
    indices;
  let active = ref (List.length indices) in
  let t = ref 0.0 in
  (* Demand-limited flows freeze at fill level demand/weight. *)
  let demand_level i =
    match flows.(i).demand with
    | Some d -> Some ((d : U.byte_rate :> float) /. flows.(i).weight)
    | None -> None
  in
  while !active > 0 do
    (* Smallest fill increment that saturates a link or meets a demand. *)
    let dt = ref infinity in
    for l = 0 to nl - 1 do
      if wsum.(l) > eps then begin
        let step = remaining.(l) /. wsum.(l) in
        if step < !dt then dt := step
      end
    done;
    List.iter
      (fun i ->
        if not frozen.(i) then
          match demand_level i with
          | Some lvl when lvl -. !t < !dt -> dt := lvl -. !t
          | _ -> ())
      indices;
    if !dt = infinity then begin
      (* No constraining link and no demand: flows with no links; give 0. *)
      List.iter
        (fun i ->
          if not frozen.(i) then begin
            frozen.(i) <- true;
            rates.(i) <- flows.(i).weight *. !t;
            decr active
          end)
        indices
    end
    else begin
      let dt = max 0.0 !dt in
      t := !t +. dt;
      (* Drain capacity at the advanced fill level. *)
      for l = 0 to nl - 1 do
        if wsum.(l) > eps then remaining.(l) <- remaining.(l) -. (dt *. wsum.(l))
      done;
      (* Freeze flows on saturated links. *)
      for l = 0 to nl - 1 do
        if wsum.(l) > eps && remaining.(l) <= eps then begin
          List.iter
            (fun i ->
              if not frozen.(i) then begin
                frozen.(i) <- true;
                rates.(i) <- flows.(i).weight *. !t;
                decr active;
                iter_row
                  (fun l' frac -> wsum.(l') <- wsum.(l') -. (flows.(i).weight *. frac))
                  flows.(i).row
              end)
            on_link.(l);
          remaining.(l) <- 0.0
        end
      done;
      (* Freeze flows whose demand is met. *)
      List.iter
        (fun i ->
          if not frozen.(i) then
            match demand_level i with
            | Some lvl when lvl <= !t +. eps -> begin
                frozen.(i) <- true;
                rates.(i) <- flows.(i).weight *. lvl;
                decr active;
                iter_row
                  (fun l' frac -> wsum.(l') <- wsum.(l') -. (flows.(i).weight *. frac))
                  flows.(i).row
              end
            | _ -> ())
        indices
    end
  done

let by_priority flows =
  let by_prio = Util.Itbl.create 4 in
  Array.iteri
    (fun i f ->
      let cur = Option.value ~default:[] (Util.Itbl.find_opt by_prio f.priority) in
      Util.Itbl.replace by_prio f.priority (i :: cur))
    flows;
  Array.to_list (Array.map List.rev (Util.Itbl.sorted_values by_prio))

let headroom_raw = function
  | Some h ->
      let h = (h : U.fraction :> float) in
      if h < 0.0 || h >= 1.0 then invalid_arg "Waterfill: headroom out of range";
      h
  | None -> 0.0

let allocate_reference ?headroom ~capacities flows =
  let headroom = headroom_raw headroom in
  let capacities = U.floats_of capacities in
  Array.iter
    (fun f ->
      check_flow ~nl:(Array.length capacities) ~weight:f.weight ~priority:f.priority
        ~demand:f.demand f.row)
    flows;
  let rates = Array.make (Array.length flows) 0.0 in
  let remaining = Array.map (fun c -> c *. (1.0 -. headroom)) capacities in
  List.iter (fun idx -> fill_round ~remaining ~rates flows idx) (by_priority flows);
  U.of_floats rates

(* Operation counters for the performance ablation (bench `ablation`).
   Reset at the top of every dirty [Inc.allocate] so each call reports
   only its own work. One explicit record — registered domain_local in the lint
   ownership map (tools/lint/ownership.sexp): sharded domains each keep
   their own copy; the counters are never read across domains. *)
type debug_counters = {
  mutable pops : int;
  mutable valid : int;
  mutable push : int;
}

let dbg = { pops = 0; valid = 0; push = 0 }

let reset_debug_counters () =
  dbg.pops <- 0;
  dbg.valid <- 0;
  dbg.push <- 0

let link_utilization ~capacities flows rates =
  let capacities = U.floats_of capacities in
  let rates = U.floats_of rates in
  let load = Array.make (Array.length capacities) 0.0 in
  Array.iteri
    (fun i f -> iter_row (fun l frac -> load.(l) <- load.(l) +. (rates.(i) *. frac)) f.row)
    flows;
  U.of_floats
    (Array.mapi (fun l x -> if capacities.(l) > 0.0 then x /. capacities.(l) else 0.0) load)

(* -- incremental allocator (control-plane hot path) ---------------------- *)

(* Epoch recomputation state that lives across calls. Each flow is a row
   of flat per-row arrays, and its link fractions are the caller's
   [Routing.row], held by reference: the allocator never copies or writes
   one. Flow
   open/close/demand/reroute events patch rows and mark the state dirty; a
   clean [allocate] is O(1) and a dirty one reuses every buffer, so the
   steady-state recompute allocates nothing on the hot path. *)
module Inc = struct
  type t = {
    capacities : float array;
    mutable headroom : float;
    (* per-class headroom reservation (overload backpressure): a capacity
       fraction withheld from every class with priority >= reserve_prio,
       kept free for the classes above the threshold. 0.0 = disabled. *)
    mutable reserve_prio : int;
    mutable reserve_frac : float;
    (* flow id -> row: open addressing over a power-of-two table at most
       half full, -1 = empty; a slot's id is its row's [fid] *)
    mutable slots : int array;
    (* rows 0..nrows-1 are live, swap-remove keeps them dense *)
    mutable nrows : int;
    mutable fid : int array;
    mutable fweight : float array;
    mutable fprio : int array;
    mutable fdemand : float array;  (* nan = network-limited *)
    mutable frow : Routing.row array;  (* shared, never written *)
    (* arena: waterfill working buffers, reused across epochs *)
    mutable rates : float array;  (* per row; survives swap-remove *)
    mutable frozen : bool array;  (* per row *)
    mutable order : int array;  (* rows sorted by (priority, insertion) *)
    (* per link; between rounds [wsum], [last_t] and [link_end] are 0 *)
    remaining : float array;
    wsum : float array;
    last_t : float array;
    link_start : int array;  (* where the link's rows of this round start *)
    link_end : int array;  (* minus their count, then the fill cursor *)
    mutable link_rows : int array;  (* the round's link -> rows lists *)
    (* min-heap with int payload: link l => l, demand of row r => -(r+1) *)
    mutable hkeys : float array;
    mutable hvals : int array;
    mutable hlen : int;
    lvl : float array;
        (* one slot: the fill level passed into and out of the round's
           helpers, a float array so it crosses a call unboxed *)
    prio_counts : int array;  (* counting-sort buffer, one slot per priority *)
    mutable dirty : bool;
    mutable computed : bool;
  }

  let create ?headroom ~capacities () =
    let headroom = headroom_raw headroom in
    let capacities = U.floats_of capacities in
    let nl = Array.length capacities in
    let cap0 = 16 in
    {
      capacities = Array.copy capacities;
      headroom;
      reserve_prio = 0;
      reserve_frac = 0.0;
      slots = Array.make (2 * cap0) (-1);
      nrows = 0;
      fid = Array.make cap0 0;
      fweight = Array.make cap0 0.0;
      fprio = Array.make cap0 0;
      fdemand = Array.make cap0 Float.nan;
      frow = Array.make cap0 (Routing.row ~links:[||] ~fracs:[||]);
      rates = Array.make cap0 0.0;
      frozen = Array.make cap0 false;
      order = Array.make cap0 0;
      remaining = Array.make nl 0.0;
      wsum = Array.make nl 0.0;
      last_t = Array.make nl 0.0;
      link_start = Array.make nl 0;
      link_end = Array.make nl 0;
      link_rows = Array.make 64 0;
      hkeys = Array.make 64 0.0;
      hvals = Array.make 64 0;
      hlen = 0;
      lvl = [| 0.0 |];
      prio_counts = Array.make 256 0;
      dirty = false;
      computed = false;
    }

  let live_flows t = t.nrows
  let is_dirty t = t.dirty || not t.computed
  let headroom t = U.fraction t.headroom

  let set_headroom t h =
    let h = (h : U.fraction :> float) in
    if h < 0.0 || h >= 1.0 then invalid_arg "Waterfill: headroom out of range";
    if h <> t.headroom then begin
      t.headroom <- h;
      t.dirty <- true
    end

  let class_reserve t = (t.reserve_prio, U.fraction t.reserve_frac)

  let set_class_reserve t ~priority ~reserve =
    let r = (reserve : U.fraction :> float) in
    if priority < 0 then invalid_arg "Waterfill: negative reserve priority";
    if r < 0.0 || r >= 1.0 then invalid_arg "Waterfill: class reserve out of range";
    if r <> t.reserve_frac || priority <> t.reserve_prio then begin
      t.reserve_prio <- priority;
      t.reserve_frac <- r;
      t.dirty <- true
    end

  (* The slot holding [id]'s row, or the empty slot that ends its probe
     run. Probes start at the mixed id: a window of contiguous live ids
     laid out at [id land mask] would be one probe run, and [unbind]
     would walk all of it. *)
  let home_slot t id = Util.Itbl.hash id land (Array.length t.slots - 1)

  let find_slot t id =
    let mask = Array.length t.slots - 1 in
    let s = ref (home_slot t id) in
    while t.slots.(!s) >= 0 && t.fid.(t.slots.(!s)) <> id do
      s := (!s + 1) land mask
    done;
    !s

  let mem t ~id = t.slots.(find_slot t id) >= 0

  let row_of t id =
    let r = t.slots.(find_slot t id) in
    if r < 0 then invalid_arg "Waterfill.Inc: unknown flow id";
    r

  (* Point the slot of row [r]'s id at [r]. *)
  let bind t r = t.slots.(find_slot t t.fid.(r)) <- r

  (* Empty [id]'s slot, then walk the rest of its probe run and move back
     every entry whose home slot does not lie between the hole and itself,
     so no lookup stops early at the hole. *)
  let unbind t id =
    let mask = Array.length t.slots - 1 in
    let hole = ref (find_slot t id) in
    t.slots.(!hole) <- -1;
    let s = ref ((!hole + 1) land mask) in
    while t.slots.(!s) >= 0 do
      let home = home_slot t t.fid.(t.slots.(!s)) in
      if (!s - home) land mask >= (!s - !hole) land mask then begin
        t.slots.(!hole) <- t.slots.(!s);
        t.slots.(!s) <- -1;
        hole := !s
      end;
      s := (!s + 1) land mask
    done

  (* Doubles every per-row array, and the id table with them, which keeps
     it at most half full. *)
  let grow_rows t =
    let n = Array.length t.fid in
    let gi a = Array.append a (Array.make n 0) in
    let gf a = Array.append a (Array.make n 0.0) in
    t.fid <- gi t.fid;
    t.fweight <- gf t.fweight;
    t.fprio <- gi t.fprio;
    t.fdemand <- Array.append t.fdemand (Array.make n Float.nan);
    t.frow <- Array.append t.frow (Array.make n t.frow.(0));
    t.rates <- gf t.rates;
    t.frozen <- Array.append t.frozen (Array.make n false);
    t.order <- gi t.order;
    t.slots <- Array.make (4 * n) (-1);
    for r = 0 to t.nrows - 1 do
      bind t r
    done

  let add_flow ?(weight = 1.0) ?(priority = 0) ?demand t ~id row =
    check_flow ~nl:(Array.length t.capacities) ~weight ~priority ~demand row;
    if mem t ~id then invalid_arg "Waterfill.Inc: duplicate flow id";
    if t.nrows = Array.length t.fid then grow_rows t;
    let r = t.nrows in
    t.nrows <- r + 1;
    t.fid.(r) <- id;
    bind t r;
    t.fweight.(r) <- weight;
    t.fprio.(r) <- priority;
    t.fdemand.(r) <- (match demand with Some d -> (d : U.byte_rate :> float) | None -> Float.nan);
    t.frow.(r) <- row;
    t.rates.(r) <- 0.0;
    t.dirty <- true

  let remove_flow t ~id =
    let r = row_of t id in
    unbind t id;
    let last = t.nrows - 1 in
    if r <> last then begin
      t.fid.(r) <- t.fid.(last);
      t.fweight.(r) <- t.fweight.(last);
      t.fprio.(r) <- t.fprio.(last);
      t.fdemand.(r) <- t.fdemand.(last);
      t.frow.(r) <- t.frow.(last);
      t.rates.(r) <- t.rates.(last);
      bind t r
    end;
    t.nrows <- last;
    t.dirty <- true

  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) (-1);
    t.nrows <- 0;
    t.dirty <- true

  let set_demand t ~id demand =
    let r = row_of t id in
    let d = match demand with Some d -> (d : U.byte_rate :> float) | None -> Float.nan in
    if d < 0.0 then invalid_arg "Waterfill: negative demand";
    let cur = t.fdemand.(r) in
    let unchanged = (Float.is_nan d && Float.is_nan cur) || d = cur in
    if not unchanged then begin
      t.fdemand.(r) <- d;
      t.dirty <- true
    end

  let set_links t ~id row =
    check_row ~nl:(Array.length t.capacities) row;
    let r = row_of t id in
    t.frow.(r) <- row;
    t.dirty <- true

  (* -- heap: float keys, int payloads, buffers reused across epochs -- *)

  (* Pushes [v] keyed by [t.lvl.(0)]. *)
  let heap_push t v =
    let key = t.lvl.(0) in
    if t.hlen = Array.length t.hkeys then begin
      t.hkeys <- Array.append t.hkeys (Array.make t.hlen 0.0);
      t.hvals <- Array.append t.hvals (Array.make t.hlen 0)
    end;
    t.hkeys.(t.hlen) <- key;
    t.hvals.(t.hlen) <- v;
    t.hlen <- t.hlen + 1;
    let i = ref (t.hlen - 1) in
    while !i > 0 && t.hkeys.((!i - 1) / 2) > t.hkeys.(!i) do
      let p = (!i - 1) / 2 in
      let k = t.hkeys.(p) and v' = t.hvals.(p) in
      t.hkeys.(p) <- t.hkeys.(!i);
      t.hvals.(p) <- t.hvals.(!i);
      t.hkeys.(!i) <- k;
      t.hvals.(!i) <- v';
      i := p
    done

  (* Returns the payload, storing the key in [t.lvl.(0)]; min_int = empty. *)
  let heap_pop t =
    if t.hlen = 0 then min_int
    else begin
      let key = t.hkeys.(0) and v = t.hvals.(0) in
      t.hlen <- t.hlen - 1;
      if t.hlen > 0 then begin
        t.hkeys.(0) <- t.hkeys.(t.hlen);
        t.hvals.(0) <- t.hvals.(t.hlen);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < t.hlen && t.hkeys.(l) < t.hkeys.(!s) then s := l;
          if r < t.hlen && t.hkeys.(r) < t.hkeys.(!s) then s := r;
          if !s = !i then continue := false
          else begin
            let k = t.hkeys.(!s) and v' = t.hvals.(!s) in
            t.hkeys.(!s) <- t.hkeys.(!i);
            t.hvals.(!s) <- t.hvals.(!i);
            t.hkeys.(!i) <- k;
            t.hvals.(!i) <- v';
            i := !s
          end
        done
      end;
      t.lvl.(0) <- key;
      v
    end

  (* Stable counting sort of live rows by priority into [order], so each
     round's rows lie in ascending row order. [add_flow] keeps every
     priority in 0..255, so the counts fit [prio_counts]. *)
  let sort_rounds t =
    let nf = t.nrows in
    let pmin = ref max_int and pmax = ref min_int in
    for r = 0 to nf - 1 do
      if t.fprio.(r) < !pmin then pmin := t.fprio.(r);
      if t.fprio.(r) > !pmax then pmax := t.fprio.(r)
    done;
    let range = !pmax - !pmin + 1 in
    Array.fill t.prio_counts 0 range 0;
    for r = 0 to nf - 1 do
      let p = t.fprio.(r) - !pmin in
      t.prio_counts.(p) <- t.prio_counts.(p) + 1
    done;
    (* exclusive prefix sums = segment starts *)
    let acc = ref 0 in
    for p = 0 to range - 1 do
      let c = t.prio_counts.(p) in
      t.prio_counts.(p) <- !acc;
      acc := !acc + c
    done;
    for r = 0 to nf - 1 do
      let p = t.fprio.(r) - !pmin in
      t.order.(t.prio_counts.(p)) <- r;
      t.prio_counts.(p) <- t.prio_counts.(p) + 1
    done

  (* The round's helpers are inlined: they run once per heap event or
     incidence, where a call costs about as much as their bodies. *)

  (* Link [l]'s saturation level, into [t.lvl.(0)]. *)
  let[@inline] sat_level t l =
    t.lvl.(0) <-
      (if t.wsum.(l) > eps then t.last_t.(l) +. (t.remaining.(l) /. t.wsum.(l)) else infinity)

  (* Drains link [l] up to the level in [t.lvl.(0)]. *)
  let[@inline] settle t l =
    let lvl = t.lvl.(0) in
    if lvl > t.last_t.(l) then begin
      t.remaining.(l) <- Float.max 0.0 (t.remaining.(l) -. (t.wsum.(l) *. (lvl -. t.last_t.(l))));
      t.last_t.(l) <- lvl
    end

  (* Freezes row [r] at the level in [t.lvl.(0)] and takes its load off
     its links; false if it was frozen already. *)
  let[@inline] freeze t r =
    let fresh = not t.frozen.(r) in
    if fresh then begin
      t.frozen.(r) <- true;
      t.rates.(r) <- t.fweight.(r) *. t.lvl.(0);
      let { Routing.links; fracs; _ } = t.frow.(r) in
      for j = 0 to Array.length links - 1 do
        let l = links.(j) in
        settle t l;
        t.wsum.(l) <-
          Float.max 0.0 (t.wsum.(l) -. (t.fweight.(r) *. (fracs.(j) : U.fraction :> float)))
      done
    end;
    fresh

  (* One priority round over order[lo..hi), event-driven (§4.2): a heap
     orders link saturations and demand caps by fill level. Each link keeps
     exactly ONE heap entry whose key is a lower bound on its true
     saturation level (the level can only grow as other flows freeze and
     stop loading the link). On pop the true level is recomputed: if it
     moved, the entry is re-inserted at the new key; otherwise the link
     saturates and its flows freeze. Keeping the heap at O(links) entries
     keeps every sift in cache. All per-link work covers only the links
     the round's rows touch: their link -> rows lists are laid out in
     [link_rows] from those rows alone, and only they are reset at the
     end. *)
  let round_inc t lo hi =
    (* Pass 1: load sums, and each touched link's row count, negated. *)
    let n = ref 0 in
    for k = lo to hi - 1 do
      let r = t.order.(k) in
      let { Routing.links; fracs; _ } = t.frow.(r) in
      for j = 0 to Array.length links - 1 do
        let l = links.(j) in
        t.wsum.(l) <- t.wsum.(l) +. (t.fweight.(r) *. (fracs.(j) : U.fraction :> float));
        t.link_end.(l) <- t.link_end.(l) - 1
      done;
      n := !n + Array.length links
    done;
    if Array.length t.link_rows < !n then t.link_rows <- Array.make (2 * !n) 0;
    (* Pass 2: a link's first visit places its list and pushes it; each
       list fills in ascending row order, and each row's demand follows
       its links into the heap. *)
    t.hlen <- 0;
    let next = ref 0 in
    for k = lo to hi - 1 do
      let r = t.order.(k) in
      let links = t.frow.(r).links in
      for j = 0 to Array.length links - 1 do
        let l = links.(j) in
        if t.link_end.(l) < 0 then begin
          t.link_start.(l) <- !next;
          next := !next - t.link_end.(l);
          t.link_end.(l) <- t.link_start.(l);
          dbg.push <- dbg.push + 1;
          sat_level t l;
          heap_push t l
        end;
        t.link_rows.(t.link_end.(l)) <- r;
        t.link_end.(l) <- t.link_end.(l) + 1
      done;
      if not (Float.is_nan t.fdemand.(r)) then begin
        t.lvl.(0) <- t.fdemand.(r) /. t.fweight.(r);
        heap_push t (-(r + 1))
      end
    done;
    let active = ref (hi - lo) in
    while !active > 0 do
      let v = heap_pop t in
      if v = min_int then begin
        (* No constraining event left: link-less flows get 0. *)
        t.lvl.(0) <- 0.0;
        for k = lo to hi - 1 do
          if freeze t t.order.(k) then decr active
        done
      end
      else if v >= 0 then begin
        let l = v and key = t.lvl.(0) in
        dbg.pops <- dbg.pops + 1;
        sat_level t l;
        let cur = t.lvl.(0) in
        if cur = infinity then ()
        else if cur > key +. (1e-12 *. (1.0 +. abs_float key)) then begin
          dbg.push <- dbg.push + 1;
          heap_push t l
        end
        else begin
          dbg.valid <- dbg.valid + 1;
          settle t l;
          for p = t.link_start.(l) to t.link_end.(l) - 1 do
            if freeze t t.link_rows.(p) then decr active
          done
        end
      end
      else if freeze t (-v - 1) (* a demand cap, at the popped key *) then decr active
    done;
    (* Only the round's links were written: reset them for the next one. *)
    for k = lo to hi - 1 do
      let links = t.frow.(t.order.(k)).links in
      for j = 0 to Array.length links - 1 do
        let l = links.(j) in
        t.wsum.(l) <- 0.0;
        t.last_t.(l) <- 0.0;
        t.link_end.(l) <- 0
      done
    done

  let compute t =
    let nl = Array.length t.capacities in
    let nf = t.nrows in
    for l = 0 to nl - 1 do
      t.remaining.(l) <- t.capacities.(l) *. (1.0 -. t.headroom)
    done;
    if nf > 0 then begin
      Array.fill t.rates 0 nf 0.0;
      Array.fill t.frozen 0 nf false;
      sort_rounds t;
      let k0 = ref 0 in
      let reserved = ref false in
      while !k0 < nf do
        let p = t.fprio.(t.order.(!k0)) in
        (* Crossing the reserve threshold: withhold the reserved slice from
           this and every lower class, exactly once. Gated on a non-zero
           fraction so the default path stays bit-identical. *)
        if (not !reserved) && t.reserve_frac > 0.0 && p >= t.reserve_prio then begin
          for l = 0 to nl - 1 do
            t.remaining.(l) <-
              Float.max 0.0 (t.remaining.(l) -. (t.reserve_frac *. t.capacities.(l)))
          done;
          reserved := true
        end;
        let k1 = ref (!k0 + 1) in
        while !k1 < nf && t.fprio.(t.order.(!k1)) = p do
          incr k1
        done;
        round_inc t !k0 !k1;
        k0 := !k1
      done
    end

  let allocate t =
    if t.dirty || not t.computed then begin
      reset_debug_counters ();
      compute t;
      t.dirty <- false;
      t.computed <- true
    end

  let rate t ~id = U.byte_rate t.rates.(row_of t id)

  let iter_rates t f =
    for r = 0 to t.nrows - 1 do
      f ~id:t.fid.(r) ~rate:(U.byte_rate t.rates.(r))
    done
end
