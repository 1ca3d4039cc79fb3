(* Tests for the incremental allocator (Waterfill.Inc): differential
   property tests against the reference progressive-filling oracle on
   randomized churn sequences, bit for bit against Waterfill_model, the
   shared-row contract, clean-epoch O(1) behaviour via the debug counters,
   allocation-free warm opens and recomputes, and the per-call
   counter-reset contract. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* Wrap/unwrap shims so the scenarios below stay in raw numbers. *)
let lk links = Routing.row ~links:(Array.map fst links) ~fracs:(U.of_floats (Array.map snd links))
let caps = U.of_floats
let inc_rate inc ~id = U.to_float (Congestion.Waterfill.Inc.rate inc ~id)

(* Mirror of the incremental state kept as plain lists, re-allocated from
   scratch for the oracle on every epoch. *)
type mirror = {
  mutable next_id : int;
  mutable live : (int * float * int * U.byte_rate option * Routing.row) list;
      (* id, weight, priority, demand, row *)
}

let protocols = [| Routing.Rps; Routing.Dor; Routing.Vlb; Routing.Wlb |]

let random_links ctx rng =
  let h = Topology.host_count (Routing.topo ctx) in
  let src = Util.Rng.int rng h in
  let dst = (src + 1 + Util.Rng.int rng (h - 1)) mod h in
  Routing.fractions ctx (Util.Rng.pick rng protocols) ~src ~dst

let random_demand rng =
  if Util.Rng.bool rng then Some (U.byte_rate (Util.Rng.float rng 2.0)) else None

(* One random flow event; [links ()] draws the row of an opened or
   rerouted flow. *)
let apply_random_op ~links rng inc m =
  let n = List.length m.live in
  match Util.Rng.int rng (if n = 0 then 1 else 4) with
  | 0 ->
      (* open *)
      let id = m.next_id in
      m.next_id <- id + 1;
      let weight = 0.5 +. Util.Rng.float rng 2.5 in
      let priority = Util.Rng.int rng 3 in
      let demand = random_demand rng in
      let links = links () in
      Congestion.Waterfill.Inc.add_flow ~weight ~priority ?demand inc ~id links;
      m.live <- (id, weight, priority, demand, links) :: m.live
  | 1 ->
      (* close *)
      let id, _, _, _, _ = List.nth m.live (Util.Rng.int rng n) in
      Congestion.Waterfill.Inc.remove_flow inc ~id;
      m.live <- List.filter (fun (i, _, _, _, _) -> i <> id) m.live
  | 2 ->
      (* demand update *)
      let id, w, p, _, links = List.nth m.live (Util.Rng.int rng n) in
      let demand = random_demand rng in
      Congestion.Waterfill.Inc.set_demand inc ~id demand;
      m.live <-
        List.map (fun ((i, _, _, _, _) as f) -> if i = id then (id, w, p, demand, links) else f) m.live
  | _ ->
      (* reroute *)
      let id, w, p, d, _ = List.nth m.live (Util.Rng.int rng n) in
      let links = links () in
      Congestion.Waterfill.Inc.set_links inc ~id links;
      m.live <-
        List.map (fun ((i, _, _, _, _) as f) -> if i = id then (id, w, p, d, links) else f) m.live

let check_against_reference ~headroom ~capacities inc m =
  Congestion.Waterfill.Inc.allocate inc;
  let flows =
    Array.of_list
      (List.map
         (fun (id, weight, priority, demand, links) ->
           Congestion.Waterfill.flow ~weight ~priority ?demand ~id links)
         m.live)
  in
  let expected =
    U.floats_of (Congestion.Waterfill.allocate_reference ~headroom ~capacities flows)
  in
  Array.iteri
    (fun i f ->
      let got = inc_rate inc ~id:f.Congestion.Waterfill.id in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "flow %d" f.Congestion.Waterfill.id)
        expected.(i) got)
    flows

(* >= 200 random churn sequences on a 4x4 torus: after every burst of churn
   the incremental rates must equal the reference oracle's. *)
let inc_matches_reference_on_churn () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let headroom = U.fraction 0.05 in
  let rng = Util.Rng.create 42 in
  for _seq = 1 to 200 do
    let inc = Congestion.Waterfill.Inc.create ~headroom ~capacities () in
    let m = { next_id = 0; live = [] } in
    let epochs = 2 + Util.Rng.int rng 4 in
    for _epoch = 1 to epochs do
      let ops = 1 + Util.Rng.int rng 8 in
      for _op = 1 to ops do
        apply_random_op ~links:(fun () -> random_links ctx rng) rng inc m
      done;
      check_against_reference ~headroom ~capacities inc m
    done
  done

(* Epoch recomputation under flow churn at rack scale: 512 RPS flows on the
   8x8x8 torus, 10% of them replaced per epoch for 40 epochs (seed 11).
   After every epoch the incremental rates must equal the reference
   oracle's within 1e-6. Removals swap the last row into the hole, so a
   row left pointing at the wrong flow shows up here. *)
let inc_matches_reference_under_rack_churn () =
  let module W = Congestion.Waterfill in
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let h = Topology.host_count topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let headroom = U.fraction 0.05 in
  let rng = Util.Rng.create 11 in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    let src = Util.Rng.int rng h in
    let dst = (src + 1 + Util.Rng.int rng (h - 1)) mod h in
    W.flow ~id (Routing.fractions ctx Routing.Rps ~src ~dst)
  in
  let n = 512 in
  let live = Array.init n (fun _ -> fresh ()) in
  let inc = W.Inc.create ~headroom ~capacities () in
  Array.iter (fun (f : W.flow) -> W.Inc.add_flow inc ~id:f.id f.row) live;
  for epoch = 0 to 40 do
    if epoch > 0 then
      for _ = 1 to n / 10 do
        let j = Util.Rng.int rng n in
        W.Inc.remove_flow inc ~id:live.(j).id;
        live.(j) <- fresh ();
        W.Inc.add_flow inc ~id:live.(j).id live.(j).row
      done;
    W.Inc.allocate inc;
    let expected = U.floats_of (W.allocate_reference ~headroom ~capacities live) in
    let worst = ref 0.0 in
    Array.iteri
      (fun i (f : W.flow) ->
        worst := Float.max !worst (abs_float (expected.(i) -. inc_rate inc ~id:f.id)))
      live;
    if !worst > 1e-6 then Alcotest.failf "epoch %d: rates diverged by %g" epoch !worst
  done

(* A clean epoch must not touch the heap at all — the O(1) cached path. *)
let clean_epoch_zero_heap_ops () =
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let inc = Congestion.Waterfill.Inc.create ~headroom:(U.fraction 0.05) ~capacities () in
  let rng = Util.Rng.create 7 in
  for id = 0 to 49 do
    Congestion.Waterfill.Inc.add_flow inc ~id (random_links ctx rng)
  done;
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check bool) "dirty epoch pushed events" true (Congestion.Waterfill.dbg.push > 0);
  let before = Array.init 50 (fun id -> inc_rate inc ~id) in
  (* Re-announcing the demand a flow already has keeps the epoch clean. *)
  Congestion.Waterfill.Inc.set_demand inc ~id:3 None;
  Alcotest.(check bool) "still clean" false (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.reset_debug_counters ();
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check int) "zero heap pushes" 0 Congestion.Waterfill.dbg.push;
  Alcotest.(check int) "zero heap pops" 0 Congestion.Waterfill.dbg.pops;
  Array.iteri
    (fun id r ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "rate %d unchanged" id) r (inc_rate inc ~id))
    before

(* The ablation counters must report one computation per call, not a
   running total across calls. *)
let counters_reset_per_allocate () =
  let capacities = caps [| 10.0; 4.0 |] in
  let flows =
    [|
      Congestion.Waterfill.flow ~id:0 (lk [| (0, 1.0); (1, 1.0) |]);
      Congestion.Waterfill.flow ~id:1 (lk [| (1, 1.0) |]);
      Congestion.Waterfill.flow ~id:2 (lk [| (0, 1.0) |]);
    |]
  in
  ignore (Waterfill_model.fresh_rates ~capacities flows);
  let first = Congestion.Waterfill.dbg.push in
  Alcotest.(check bool) "pushes counted" true (first > 0);
  ignore (Waterfill_model.fresh_rates ~capacities flows);
  Alcotest.(check int) "identical second measurement" first Congestion.Waterfill.dbg.push

let dirty_tracking_lifecycle () =
  let capacities = caps [| 1.0 |] in
  let inc = Congestion.Waterfill.Inc.create ~capacities () in
  Alcotest.(check bool) "dirty before first allocate" true
    (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check bool) "clean after allocate" false (Congestion.Waterfill.Inc.is_dirty inc);
  Congestion.Waterfill.Inc.add_flow inc ~id:5 (lk [| (0, 1.0) |]);
  Alcotest.(check bool) "open marks dirty" true (Congestion.Waterfill.Inc.is_dirty inc);
  Alcotest.(check (float 0.0)) "zero before allocate" 0.0 (inc_rate inc ~id:5);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "full link" 1.0 (inc_rate inc ~id:5);
  Congestion.Waterfill.Inc.add_flow inc ~id:9 (lk [| (0, 1.0) |]);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "half" 0.5 (inc_rate inc ~id:9);
  Congestion.Waterfill.Inc.remove_flow inc ~id:5;
  Alcotest.(check bool) "close marks dirty" true (Congestion.Waterfill.Inc.is_dirty inc);
  (* Swap-removal must keep the surviving flow's cached rate addressable. *)
  Alcotest.(check (float 1e-9)) "survivor rate intact" 0.5 (inc_rate inc ~id:9);
  Congestion.Waterfill.Inc.allocate inc;
  Alcotest.(check (float 1e-9)) "survivor takes the link" 1.0 (inc_rate inc ~id:9);
  Alcotest.(check int) "one live flow" 1 (Congestion.Waterfill.Inc.live_flows inc);
  Alcotest.check_raises "unknown id" (Invalid_argument "Waterfill.Inc: unknown flow id")
    (fun () -> ignore (Congestion.Waterfill.Inc.rate inc ~id:5));
  Alcotest.check_raises "duplicate id" (Invalid_argument "Waterfill.Inc: duplicate flow id")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:9 (lk [| (0, 1.0) |]))

let inc_input_validation () =
  let inc = Congestion.Waterfill.Inc.create ~capacities:(caps [| 1.0 |]) () in
  Alcotest.check_raises "bad weight" (Invalid_argument "Waterfill: non-positive weight")
    (fun () -> Congestion.Waterfill.Inc.add_flow ~weight:0.0 inc ~id:0 (lk [| (0, 1.0) |]));
  Alcotest.check_raises "bad link" (Invalid_argument "Waterfill: link id out of range")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:0 (lk [| (3, 1.0) |]));
  (* A row is validated where it is built, so a bad fraction or a negative
     link id never reaches the allocator; [add_flow] checks only that the
     row's links exist here. *)
  Alcotest.check_raises "bad fraction" (Invalid_argument "Routing.row: non-positive fraction")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:0 (lk [| (0, 0.0) |]));
  Alcotest.check_raises "negative link" (Invalid_argument "Routing.row: negative link id")
    (fun () -> Congestion.Waterfill.Inc.add_flow inc ~id:0 (lk [| (-1, 1.0) |]));
  Alcotest.check_raises "bad link on reroute" (Invalid_argument "Waterfill: link id out of range")
    (fun () ->
      Congestion.Waterfill.Inc.add_flow inc ~id:1 (lk [| (0, 1.0) |]);
      Congestion.Waterfill.Inc.set_links inc ~id:1 (lk [| (3, 1.0) |]));
  Alcotest.check_raises "bad headroom" (Invalid_argument "Waterfill: headroom out of range")
    (fun () ->
      ignore
        (Congestion.Waterfill.Inc.create ~headroom:(U.fraction 1.0)
           ~capacities:(caps [| 1.0 |]) ()))

(* Per-node control refills one allocator for every sender: after [clear]
   and the same [add_flow] calls it must return exactly what a fresh state
   with the same settings returns, whatever the previous fill left in its
   buffers. Without a class reserve, it must also match a fresh state
   keyed by slot. *)
let cleared_inc_matches_fresh () =
  let module W = Congestion.Waterfill in
  let topo = Topology.torus [| 4; 4 |] in
  let ctx = Routing.make topo in
  let rng = Util.Rng.create 61 in
  let capacities =
    Array.init (Topology.link_count topo) (fun _ -> U.byte_rate (0.5 +. Util.Rng.float rng 1.0))
  in
  let reused = W.Inc.create ~capacities () in
  let bits = Int64.bits_of_float in
  for _trial = 1 to 200 do
    let headroom = U.fraction (Util.Rng.float rng 0.3) in
    let reserve = if Util.Rng.bool rng then 0.0 else Util.Rng.float rng 0.4 in
    let reserve_priority = Util.Rng.int rng 3 in
    let fresh = W.Inc.create ~headroom ~capacities () in
    W.Inc.set_headroom reused headroom;
    W.Inc.clear reused;
    let base = Util.Rng.int rng 1_000 in
    let flows =
      Array.init (Util.Rng.int rng 40) (fun i ->
          let weight = 0.5 +. Util.Rng.float rng 2.5 and priority = Util.Rng.int rng 3 in
          let demand = random_demand rng in
          W.flow ~weight ~priority ?demand ~id:(base + (3 * i)) (random_links ctx rng))
    in
    List.iter
      (fun inc ->
        W.Inc.set_class_reserve inc ~priority:reserve_priority ~reserve:(U.fraction reserve);
        Array.iter
          (fun (f : W.flow) ->
            W.Inc.add_flow ~weight:f.weight ~priority:f.priority ?demand:f.demand inc ~id:f.id
              f.row)
          flows;
        W.Inc.allocate inc)
      [ fresh; reused ];
    let oneshot = U.floats_of (Waterfill_model.fresh_rates ~headroom ~capacities flows) in
    Array.iteri
      (fun i (f : W.flow) ->
        let got = bits (inc_rate reused ~id:f.id) in
        Alcotest.(check int64) (Printf.sprintf "flow %d" f.id) (bits (inc_rate fresh ~id:f.id)) got;
        if reserve = 0.0 then
          Alcotest.(check int64) (Printf.sprintf "flow %d, fresh by slot" f.id) (bits oneshot.(i)) got)
      flows
  done

(* The shared-row contract: two allocators take their rows from one 8x8x8
   routing context, so every row they hold is the context's cached row,
   shared by reference. Under random open, close, demand and reroute churn
   each allocator must match the reference oracle after every epoch, and at
   the end every row must still be bit-identical to the same key's row
   built in a fresh context: no allocator wrote a shared row. *)
let allocators_share_rows () =
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let headroom = U.fraction 0.05 in
  let rng = Util.Rng.create 23 in
  (* Few keys, so the two allocators hold the same rows many times over. *)
  let keys =
    Array.init 48 (fun i ->
        let src = Util.Rng.int rng 512 in
        let dst = (src + 1 + Util.Rng.int rng 511) mod 512 in
        ((if i mod 3 = 0 then Routing.Dor else Routing.Rps), src, dst))
  in
  let fetch ctx (p, src, dst) = Routing.fractions ctx p ~src ~dst in
  let links () = fetch ctx keys.(Util.Rng.int rng (Array.length keys)) in
  let allocs =
    Array.init 2 (fun _ ->
        (Congestion.Waterfill.Inc.create ~headroom ~capacities (), { next_id = 0; live = [] }))
  in
  for _epoch = 1 to 25 do
    Array.iter
      (fun (inc, m) ->
        for _op = 1 to 12 do
          apply_random_op ~links rng inc m
        done;
        check_against_reference ~headroom ~capacities inc m)
      allocs
  done;
  let fresh = Routing.make topo in
  Array.iter
    (fun ((_, src, dst) as key) ->
      let shared = fetch ctx key and rebuilt = fetch fresh key in
      let bits (x : U.fraction) = Int64.bits_of_float (x :> float) in
      if shared.links <> rebuilt.links || Array.map bits shared.fracs <> Array.map bits rebuilt.fracs
      then Alcotest.failf "row %d->%d was written" src dst)
    keys

(* Holding a row by reference makes opening a flow allocation-free: once
   the per-flow arrays and the id table have grown, [add_flow] of a cached
   row allocates no minor word. *)
let add_flow_allocates_nothing () =
  let module W = Congestion.Waterfill in
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let inc = W.Inc.create ~capacities () in
  let n = 64 in
  let rows = Array.init n (fun i -> Routing.fractions ctx Routing.Rps ~src:(i + 1) ~dst:0) in
  for id = 0 to n - 1 do
    W.Inc.add_flow inc ~id rows.(id)
  done;
  for id = 0 to n - 1 do
    W.Inc.remove_flow inc ~id
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    W.Inc.add_flow inc ~id:(n + i) rows.(i)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words of 64 warm opens" 0.0 words;
  Alcotest.(check int) "all open" n (W.Inc.live_flows inc)

(* Bit for bit against Waterfill_model, the recompute over a full
   transpose with per-round resets. Random churn drives both through the
   same calls: opens, closes, demand changes, reroutes, headroom and class
   reserve changes, over 1-3 priorities and rows of every protocol. Weights
   and demands come from small sets, so heap keys tie and the order of
   pushes and freezes shows in the float bits. After every epoch each rate
   must carry the model's bits, and [Waterfill.dbg] the model's counts (a
   clean [allocate] leaves them as the last recompute set them). *)
let matches_model_bit_for_bit () =
  let module W = Congestion.Waterfill in
  let module M = Waterfill_model in
  let pick rng a = a.(Util.Rng.int rng (Array.length a)) in
  let weights = [| 1.0; 1.0; 2.0; 0.5 |] in
  let draw_demand rng =
    if Util.Rng.bool rng then None
    else Some (U.byte_rate (pick rng [| 0.05; 0.1; 0.2; 0.25; 0.5; Util.Rng.float rng 0.6 |]))
  in
  List.iter
    (fun (name, dims, seed, sequences, opened, epochs) ->
      let topo = Topology.torus dims in
      let ctx = Routing.make topo in
      let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
      let rng = Util.Rng.create seed in
      for sequence = 1 to sequences do
        let prios = 1 + Util.Rng.int rng 3 in
        let headroom = U.fraction 0.05 in
        let inc = W.Inc.create ~headroom ~capacities () in
        let m = M.create ~headroom ~capacities in
        let live = ref [] and next_id = ref 0 in
        let open_flow () =
          let id = !next_id in
          incr next_id;
          let weight = pick rng weights and priority = Util.Rng.int rng prios in
          let demand = draw_demand rng and row = random_links ctx rng in
          W.Inc.add_flow ~weight ~priority ?demand inc ~id row;
          M.add_flow ~weight ~priority ?demand m ~id row;
          live := id :: !live
        in
        let some_live () = List.nth !live (Util.Rng.int rng (List.length !live)) in
        for _ = 1 to opened do
          open_flow ()
        done;
        for epoch = 1 to epochs do
          for _ = 1 to 1 + Util.Rng.int rng 8 do
            match Util.Rng.int rng 8 with
            | 0 | 1 | 2 -> open_flow ()
            | 3 when !live <> [] ->
                let id = some_live () in
                W.Inc.remove_flow inc ~id;
                M.remove_flow m ~id;
                live := List.filter (( <> ) id) !live
            | 4 when !live <> [] ->
                let id = some_live () and d = draw_demand rng in
                W.Inc.set_demand inc ~id d;
                M.set_demand m ~id d
            | 5 when !live <> [] ->
                let id = some_live () and row = random_links ctx rng in
                W.Inc.set_links inc ~id row;
                M.set_links m ~id row
            | 6 ->
                let h = U.fraction (pick rng [| 0.0; 0.05; 0.1; 0.2 |]) in
                W.Inc.set_headroom inc h;
                M.set_headroom m h
            | 7 ->
                let priority = Util.Rng.int rng prios in
                let reserve = U.fraction (pick rng [| 0.0; 0.1; 0.25 |]) in
                W.Inc.set_class_reserve inc ~priority ~reserve;
                M.set_class_reserve m ~priority ~reserve
            | _ -> ()
          done;
          W.Inc.allocate inc;
          let want = M.allocate m in
          let at = Printf.sprintf "%s, sequence %d, epoch %d" name sequence epoch in
          List.iter
            (fun id ->
              let got = inc_rate inc ~id and rate = M.rate m ~id in
              if Int64.bits_of_float got <> Int64.bits_of_float rate then
                Alcotest.failf "%s: flow %d rate %h, model %h" at id got rate)
            !live;
          if (W.dbg.push, W.dbg.pops, W.dbg.valid) <> (want.push, want.pops, want.valid) then
            Alcotest.failf "%s: push/pops/valid %d/%d/%d, model %d/%d/%d" at W.dbg.push W.dbg.pops
              W.dbg.valid want.push want.pops want.valid
        done
      done)
    [ ("4x4", [| 4; 4 |], 26, 150, 4, 10); ("8x8x8", [| 8; 8; 8 |], 27, 4, 30, 15) ]

(* A dirty recompute on a warm state reuses every buffer and passes fill
   levels through a float array slot, never as a boxed float argument:
   after one flow closes and another opens, [allocate] allocates no minor
   word. *)
let warm_recompute_allocates_nothing () =
  let module W = Congestion.Waterfill in
  let topo = Topology.torus [| 8; 8; 8 |] in
  let ctx = Routing.make topo in
  let capacities = Array.make (Topology.link_count topo) (U.byte_rate 1.25) in
  let inc = W.Inc.create ~headroom:(U.fraction 0.05) ~capacities () in
  let n = 64 in
  let rows = Array.init (n + 1) (fun i -> Routing.fractions ctx Routing.Rps ~src:(i + 1) ~dst:0) in
  for id = 0 to n - 1 do
    W.Inc.add_flow ~priority:(id mod 2) inc ~id rows.(id)
  done;
  W.Inc.allocate inc;
  W.Inc.remove_flow inc ~id:5;
  W.Inc.add_flow ~priority:1 inc ~id:n rows.(n);
  let before = Gc.minor_words () in
  W.Inc.allocate inc;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "recomputed" true (W.dbg.push > 0 && not (W.Inc.is_dirty inc));
  Alcotest.(check (float 0.0)) "minor words of a warm dirty recompute" 0.0 words

(* Contiguous live ids, as R2c2_sim's global allocator keys flows: probes
   starting at [id land mask] would lay them out as one probe run, and
   every delete's backward shift would walk all of it. *)
let contiguous_ids_close_fast () =
  let module W = Congestion.Waterfill in
  let n = 30_000 in
  let row = lk [| (0, 1.0) |] in
  let inc = W.Inc.create ~capacities:(caps [| 1.25 |]) () in
  for id = 0 to n - 1 do
    W.Inc.add_flow inc ~id row
  done;
  let t0 = Sys.time () in
  for id = 0 to n - 1 do
    W.Inc.remove_flow inc ~id
  done;
  let cpu = Sys.time () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "30,000 closes in %.3f s" cpu) true (cpu < 0.2);
  Alcotest.(check int) "all closed" 0 (W.Inc.live_flows inc)

let suites =
  [
    ( "incremental",
      [
        tc "matches reference across 200 churn sequences" inc_matches_reference_on_churn;
        tc "matches reference under 10% churn of 512 flows on 8x8x8"
          inc_matches_reference_under_rack_churn;
        tc "matches the full-transpose model bit for bit on 4x4 and 8x8x8" matches_model_bit_for_bit;
        tc "clean epoch performs zero heap operations" clean_epoch_zero_heap_ops;
        tc "debug counters reset per allocate call" counters_reset_per_allocate;
        tc "a cleared and refilled Inc matches a fresh allocate bit for bit" cleared_inc_matches_fresh;
        tc "two allocators share rows and never write them" allocators_share_rows;
        tc "warm add_flow of a cached row allocates nothing" add_flow_allocates_nothing;
        tc "a warm dirty recompute allocates nothing" warm_recompute_allocates_nothing;
        tc "closing contiguous ids stays O(1) each" contiguous_ids_close_fast;
        tc "dirty tracking across open/close" dirty_tracking_lifecycle;
        tc "input validation" inc_input_validation;
      ] );
  ]
