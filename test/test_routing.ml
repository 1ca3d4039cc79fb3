(* Tests for lib/routing: path validity per protocol, link fractions,
   conservation laws, rows rebuilt equal. *)

let tc name f = Alcotest.test_case name `Quick f

module U = Util.Units

(* A row as raw (link, fraction) pairs, for the flow algebra below. *)
let pairs (r : Routing.row) = Array.mapi (fun j l -> (l, (r.fracs.(j) : U.fraction :> float))) r.links

let fractions ctx proto ~src ~dst = pairs (Routing.fractions ctx proto ~src ~dst)

let torus44 = lazy (Routing.make (Topology.torus [| 4; 4 |]))
let torus444 = lazy (Routing.make (Topology.torus [| 4; 4; 4 |]))

let check_path_valid ctx path ~src ~dst =
  let t = Routing.topo ctx in
  Alcotest.(check int) "starts at src" src path.(0);
  Alcotest.(check int) "ends at dst" dst path.(Array.length path - 1);
  for i = 0 to Array.length path - 2 do
    Alcotest.(check bool) "consecutive vertices adjacent" true
      (Topology.find_link t path.(i) path.(i + 1) <> None)
  done

let minimal_paths_have_min_length () =
  let ctx = Lazy.force torus444 in
  let t = Routing.topo ctx in
  let rng = Util.Rng.create 3 in
  for _ = 1 to 100 do
    let src = Util.Rng.int rng 64 and dst = Util.Rng.int rng 64 in
    if src <> dst then begin
      List.iter
        (fun proto ->
          let p = Routing.sample_path ctx rng proto ~src ~dst in
          check_path_valid ctx p ~src ~dst;
          Alcotest.(check int) "minimal length"
            (Topology.distance t src dst)
            (Array.length p - 1))
        [ Routing.Rps; Routing.Dor ]
    end
  done

let vlb_paths_valid () =
  let ctx = Lazy.force torus444 in
  let rng = Util.Rng.create 5 in
  for _ = 1 to 100 do
    let src = Util.Rng.int rng 64 and dst = Util.Rng.int rng 64 in
    if src <> dst then begin
      let p = Routing.sample_path ctx rng Routing.Vlb ~src ~dst in
      check_path_valid ctx p ~src ~dst
    end
  done

let wlb_paths_valid_and_biased_short () =
  let ctx = Lazy.force torus444 in
  let t = Routing.topo ctx in
  let rng = Util.Rng.create 7 in
  let total_extra_wlb = ref 0 and total_extra_vlb = ref 0 in
  for _ = 1 to 300 do
    let src = 0 and dst = 1 in
    let pw = Routing.sample_path ctx rng Routing.Wlb ~src ~dst in
    let pv = Routing.sample_path ctx rng Routing.Vlb ~src ~dst in
    check_path_valid ctx pw ~src ~dst;
    let d = Topology.distance t src dst in
    total_extra_wlb := !total_extra_wlb + (Array.length pw - 1 - d);
    total_extra_vlb := !total_extra_vlb + (Array.length pv - 1 - d)
  done;
  Alcotest.(check bool) "WLB shorter than VLB on average" true
    (!total_extra_wlb < !total_extra_vlb)

let dor_path_deterministic_when_no_tie () =
  let ctx = Lazy.force torus44 in
  let rng1 = Util.Rng.create 1 and rng2 = Util.Rng.create 999 in
  (* (0,0) -> (1,1): offsets 1,1 — no half-way tie on a 4-torus. *)
  let t = Routing.topo ctx in
  let src = Topology.of_coords t [| 0; 0 |] and dst = Topology.of_coords t [| 1; 1 |] in
  let p1 = Routing.sample_path ctx rng1 Routing.Dor ~src ~dst in
  let p2 = Routing.sample_path ctx rng2 Routing.Dor ~src ~dst in
  Alcotest.(check (array int)) "same path regardless of rng" p1 p2

let ecmp_deterministic_per_flow () =
  let ctx = Lazy.force torus444 in
  let p1 = Routing.ecmp_path ctx ~flow_id:7 ~src:0 ~dst:42 in
  let p2 = Routing.ecmp_path ctx ~flow_id:7 ~src:0 ~dst:42 in
  Alcotest.(check (array int)) "stable" p1 p2;
  (* Different flows usually take different paths. *)
  let distinct = ref false in
  for fid = 0 to 20 do
    if Routing.ecmp_path ctx ~flow_id:fid ~src:0 ~dst:42 <> p1 then distinct := true
  done;
  Alcotest.(check bool) "hashes spread flows" true !distinct

let path_links_roundtrip () =
  let ctx = Lazy.force torus444 in
  let t = Routing.topo ctx in
  let rng = Util.Rng.create 11 in
  let p = Routing.sample_path ctx rng Routing.Rps ~src:0 ~dst:63 in
  let links = Routing.path_links ctx p in
  Alcotest.(check int) "one link per hop" (Array.length p - 1) (Array.length links);
  Array.iteri
    (fun i l ->
      Alcotest.(check int) "src matches" p.(i) (Topology.link_src t l);
      Alcotest.(check int) "dst matches" p.(i + 1) (Topology.link_dst t l))
    links

let sample_paths_distinct_unique () =
  let ctx = Lazy.force torus444 in
  let rng = Util.Rng.create 13 in
  let paths = Routing.sample_paths_distinct ctx rng ~k:8 ~src:0 ~dst:21 in
  Alcotest.(check bool) "found some" true (List.length paths >= 2);
  let keys = List.map (fun p -> Array.to_list p) paths in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* Conservation: for a minimal protocol, the fractions leaving the source
   sum to 1, and flow is conserved at every intermediate vertex. *)
let fraction_conservation proto () =
  let ctx = Lazy.force torus444 in
  let t = Routing.topo ctx in
  let rng = Util.Rng.create 17 in
  for _ = 1 to 30 do
    let src = Util.Rng.int rng 64 and dst = Util.Rng.int rng 64 in
    if src <> dst then begin
      let fr = fractions ctx proto ~src ~dst in
      let inflow = Array.make (Topology.vertex_count t) 0.0 in
      let outflow = Array.make (Topology.vertex_count t) 0.0 in
      Array.iter
        (fun (l, f) ->
          Alcotest.(check bool) "positive fraction" true (f > 0.0);
          outflow.(Topology.link_src t l) <- outflow.(Topology.link_src t l) +. f;
          inflow.(Topology.link_dst t l) <- inflow.(Topology.link_dst t l) +. f)
        fr;
      Alcotest.(check (float 1e-6)) "unit outflow at src" 1.0 (outflow.(src) -. inflow.(src));
      Alcotest.(check (float 1e-6)) "unit inflow at dst" 1.0 (inflow.(dst) -. outflow.(dst));
      for v = 0 to Topology.vertex_count t - 1 do
        if v <> src && v <> dst then
          Alcotest.(check (float 1e-6)) "conservation" 0.0 (inflow.(v) -. outflow.(v))
      done
    end
  done

let rps_fractions_match_sampling () =
  (* Empirical packet spraying frequencies converge to the DP fractions. *)
  let ctx = Lazy.force torus44 in
  let src = 0 and dst = 5 (* (1,1): two shortest paths *) in
  let fr = fractions ctx Routing.Rps ~src ~dst in
  let counts = Hashtbl.create 8 in
  let rng = Util.Rng.create 19 in
  let n = 20_000 in
  for _ = 1 to n do
    let p = Routing.sample_path ctx rng Routing.Rps ~src ~dst in
    Array.iter
      (fun l -> Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
      (Routing.path_links ctx p)
  done;
  Array.iter
    (fun (l, f) ->
      let emp = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts l)) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "link %d: %.3f vs %.3f" l f emp)
        true
        (abs_float (emp -. f) < 0.02))
    fr

let dor_fraction_single_path_no_tie () =
  let ctx = Lazy.force torus44 in
  let t = Routing.topo ctx in
  let src = Topology.of_coords t [| 0; 0 |] and dst = Topology.of_coords t [| 1; 1 |] in
  let fr = fractions ctx Routing.Dor ~src ~dst in
  Alcotest.(check int) "exactly distance links" 2 (Array.length fr);
  Array.iter (fun (_, f) -> Alcotest.(check (float 1e-9)) "full weight" 1.0 f) fr

let dor_fraction_tie_split () =
  let ctx = Lazy.force torus44 in
  let t = Routing.topo ctx in
  (* offset 2 on a 4-ring: exact half-way tie in dimension 0. *)
  let src = Topology.of_coords t [| 0; 0 |] and dst = Topology.of_coords t [| 2; 0 |] in
  let fr = fractions ctx Routing.Dor ~src ~dst in
  Alcotest.(check int) "two 2-hop directions" 4 (Array.length fr);
  Array.iter (fun (_, f) -> Alcotest.(check (float 1e-9)) "half each way" 0.5 f) fr

let vlb_fractions_sum_to_expected_hops () =
  let ctx = Lazy.force torus444 in
  let t = Routing.topo ctx in
  let src = 0 and dst = 63 in
  let fr = fractions ctx Routing.Vlb ~src ~dst in
  let total = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 fr in
  (* Expected hops = E[d(s,w)] + E[d(w,d)] over uniform waypoints. *)
  let h = Topology.host_count t in
  let expected = ref 0.0 in
  for w = 0 to h - 1 do
    expected :=
      !expected
      +. float_of_int (Topology.distance t src w + Topology.distance t w dst) /. float_of_int h
  done;
  Alcotest.(check (float 1e-6)) "total fraction = expected hops" !expected total

(* No row is cached, so every call builds its row, and builds it from
   the topology alone: a repeated call on a context whose scratch and
   ingredient caches other rows have moved since, and a call on a fresh
   context visiting the pairs in reverse, give the same links, bound and
   fraction bits under every protocol. The 4-ary 3-cube has DOR ties in
   every dimension. *)
let fractions_rebuilt_equal () =
  let topo = Topology.torus [| 4; 4; 4 |] in
  let h = Topology.host_count topo in
  let rng = Util.Rng.create 17 in
  let keys =
    List.concat_map
      (fun p ->
        List.init 12 (fun _ ->
            let src = Util.Rng.int rng h in
            (p, src, (src + 1 + Util.Rng.int rng (h - 1)) mod h)))
      Routing.all_protocols
  in
  let bits ctx (p, src, dst) =
    let r = Routing.fractions ctx p ~src ~dst in
    ( Array.to_list r.links,
      r.bound,
      Array.to_list (Array.map (fun f -> Int64.bits_of_float (f : U.fraction :> float)) r.fracs) )
  in
  let ctx = Routing.make topo in
  let first = List.map (bits ctx) keys in
  let again = List.map (bits ctx) keys in
  let fresh = List.rev (List.map (bits (Routing.make topo)) (List.rev keys)) in
  let row = Alcotest.(list (triple (list int) int (list int64))) in
  Alcotest.check row "repeated calls" first again;
  Alcotest.check row "a fresh context" first fresh

let protocol_int_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check (option bool)) "roundtrip" (Some true)
        (Option.map (fun q -> q = p) (Routing.protocol_of_int (Routing.protocol_to_int p))))
    Routing.all_protocols;
  Alcotest.(check bool) "invalid int" true (Routing.protocol_of_int 9 = None)

let qcheck_sampled_path_minimal =
  QCheck.Test.make ~name:"RPS sampled path length = distance" ~count:300
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (src, dst) ->
      QCheck.assume (src <> dst);
      let ctx = Lazy.force torus444 in
      let rng = Util.Rng.create (src + (64 * dst)) in
      let p = Routing.sample_path ctx rng Routing.Rps ~src ~dst in
      Array.length p - 1 = Topology.distance (Routing.topo ctx) src dst)

(* -- differential tests against the reference model ------------------------ *)

module M = Routing_model

(* The topologies of the differential tests, small enough to check every
   (src, dst) pair: each builds a fresh graph, so a variant's failures
   never leak into the next. *)
let model_topologies = Test_topology.builders

(* A cable out of [u]: its first neighbour. *)
let cable_of t u = (u, fst (Topology.out_links t u).(0))

(* Each variant fails part of the topology and/or demotes cables of a
   context: [health] is applied to every context made on the topology. *)
let model_variants =
  let no_health _ _ = () in
  [
    ("pristine", ignore, no_health);
    ( "failed link",
      (fun t ->
        let u, v = cable_of t 1 in
        Topology.fail_link t u v),
      no_health );
    ("failed node", (fun t -> Topology.fail_node t (Topology.vertex_count t - 2)), no_health);
    ( "failed, then restored",
      (fun t ->
        (* [restore_node] drops every mask row; the selective
           [restore_link] comes last and meets every row filled, so a row
           it keeps wrongly reaches the differentials. *)
        let u, v = cable_of t 1 and w = Topology.vertex_count t - 2 in
        Topology.fail_link t u v;
        Topology.fail_node t w;
        Topology.restore_node t w;
        for dst = 0 to Topology.vertex_count t - 1 do
          ignore (Topology.mask_row t ~dst : int)
        done;
        Topology.restore_link t u v),
      no_health );
    ( "quarantined cable",
      ignore,
      fun t ctx ->
        let u, v = cable_of t 0 in
        Routing.note_suspect ctx u v;
        let u, v = cable_of t 2 in
        Routing.note_probation ctx u v );
  ]

let variant_ctx t health =
  let ctx = Routing.make t in
  health t ctx;
  ctx

let outcome f = match f () with row -> Ok row | exception Invalid_argument m -> Error m

(* Bit for bit: equal link ids and equal float bit patterns, in order. *)
let same_outcome a b =
  match (a, b) with
  | Ok a, Ok b ->
      Array.length a = Array.length b
      && Array.for_all2
           (fun (l, f) (l', f') ->
             l = l' && Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
           a b
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false

let show_outcome = function
  | Error m -> "raises " ^ m
  | Ok row ->
      String.concat " "
        (Array.to_list
           (Array.map (fun (l, f) -> Printf.sprintf "%d:%Lx" l (Int64.bits_of_float f)) row))

(* Every protocol, every ordered pair, every variant: the row Routing
   caches equals the model's row bit for bit, or both raise. Each block of
   8 sources gets a fresh context, which bounds the row cache: a VLB or
   WLB row on the 4x4x4 torus spans most of its 384 links. *)
let fractions_match_model () =
  List.iter
    (fun (tname, build) ->
      List.iter
        (fun (vname, fail, health) ->
          let t = build () in
          fail t;
          let m = M.make (variant_ctx t health) in
          let n = Topology.vertex_count t in
          List.iter
            (fun p ->
              let ctx = ref (variant_ctx t health) in
              for src = 0 to n - 1 do
                if src mod 8 = 0 then ctx := variant_ctx t health;
                for dst = 0 to n - 1 do
                  if src <> dst then begin
                    let got =
                      outcome (fun () -> pairs (Routing.fractions !ctx p ~src ~dst))
                    in
                    let want = outcome (fun () -> M.fractions m p ~src ~dst) in
                    if not (same_outcome got want) then
                      Alcotest.failf "%s, %s, %s %d->%d:\n  got  %s\n  want %s" tname vname
                        (Routing.protocol_name p) src dst (show_outcome got) (show_outcome want)
                  end
                done
              done)
            Routing.all_protocols)
        model_variants)
    model_topologies

(* Contexts for the walker property, one per (topology, variant), built on
   first use and shared across cases: sampling mutates nothing but caches. *)
let walker_ctxs =
  Array.of_list
    (List.concat_map
       (fun (_, build) ->
         List.map
           (fun (_, fail, health) ->
             lazy
               (let t = build () in
                fail t;
                let ctx = variant_ctx t health in
                (ctx, M.make ctx)))
           model_variants)
       model_topologies)

(* The buffer walker returns the model's path, or both raise, and leaves
   the generator where the model leaves it. *)
let qcheck_walker_matches_model =
  QCheck.Test.make ~name:"sampled paths = reference walker, draw for draw" ~count:1000
    QCheck.(
      quad (int_bound (Array.length walker_ctxs - 1)) (pair small_nat small_nat) (int_bound 4)
        int)
    (fun (which, (a, b), proto, seed) ->
      let ctx, m = Lazy.force walker_ctxs.(which) in
      let n = Topology.vertex_count (Routing.topo ctx) in
      let src = a mod n and dst = b mod n in
      QCheck.assume (src <> dst);
      let r1 = Util.Rng.create seed and r2 = Util.Rng.create seed in
      let run f = match f () with p -> Ok p | exception Invalid_argument e -> Error e in
      let got, want =
        match Routing.protocol_of_int proto with
        | Some p ->
            ( run (fun () ->
                  let k = Routing.sample_into ctx r1 p ~src ~dst in
                  Array.sub (Routing.path_buffer ctx) 0 k),
              run (fun () -> M.sample_path m r2 p ~src ~dst) )
        | None ->
            (* The fifth "protocol" is the TCP baseline's ECMP path. *)
            ( run (fun () -> Routing.ecmp_path ctx ~flow_id:seed ~src ~dst),
              run (fun () -> M.ecmp_path m ~flow_id:seed ~src ~dst) )
      in
      got = want && Int64.equal (Util.Rng.bits64 r1) (Util.Rng.bits64 r2))

(* A cold row allocates its two flat arrays and at most 8 more words: its
   record, which is 4 of them. OCaml places an array of up to 256
   fields in the minor heap, so each array costs n + 1 minor words there,
   and in the major heap beyond. Counted with [Gc.minor_words], the exact
   counter; the 8x8x8 rows run from 6 to over 600 entries. *)
let cold_fractions_allocate_only_the_row () =
  let ctx = Routing.make (Topology.torus [| 8; 8; 8 |]) in
  (* Warm the scratch and the destination's distances. *)
  ignore (Routing.fractions ctx Routing.Rps ~src:1 ~dst:0);
  let expected = ref 0 and calls = ref 0 in
  let before = Gc.minor_words () in
  for src = 2 to 511 do
    let n = Array.length (Routing.fractions ctx Routing.Rps ~src ~dst:0).links in
    expected := !expected + if n <= 256 then 2 * (n + 1) else 0;
    incr calls
  done;
  let extra = (Gc.minor_words () -. before -. float_of_int !expected) /. float_of_int !calls in
  Alcotest.(check bool)
    (Printf.sprintf "minor words beyond the row per cold row <= 8 (got %.2f)" extra)
    true (extra <= 8.0)

let suites =
  [
    ( "routing",
      [
        tc "minimal paths have minimal length" minimal_paths_have_min_length;
        tc "VLB paths valid" vlb_paths_valid;
        tc "WLB valid and shorter than VLB" wlb_paths_valid_and_biased_short;
        tc "DOR deterministic without ties" dor_path_deterministic_when_no_tie;
        tc "ECMP deterministic per flow" ecmp_deterministic_per_flow;
        tc "path_links matches path" path_links_roundtrip;
        tc "distinct path sampling" sample_paths_distinct_unique;
        tc "RPS fraction conservation" (fraction_conservation Routing.Rps);
        tc "DOR fraction conservation" (fraction_conservation Routing.Dor);
        tc "WLB fraction conservation" (fraction_conservation Routing.Wlb);
        tc "VLB fraction conservation" (fraction_conservation Routing.Vlb);
        tc "RPS fractions match empirical spraying" rps_fractions_match_sampling;
        tc "DOR single path without tie" dor_fraction_single_path_no_tie;
        tc "DOR splits half-way ties" dor_fraction_tie_split;
        tc "VLB fractions sum to expected hops" vlb_fractions_sum_to_expected_hops;
        tc "fractions rebuilt equal" fractions_rebuilt_equal;
        tc "protocol int roundtrip" protocol_int_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_sampled_path_minimal;
        tc "fractions = reference model, bit for bit" fractions_match_model;
        QCheck_alcotest.to_alcotest qcheck_walker_matches_model;
        tc "cold fractions allocate only the row" cold_fractions_allocate_only_the_row;
      ] );
  ]
