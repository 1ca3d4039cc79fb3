(* Tests for lib/topology: grid construction, distances, trees, failures. *)

let tc name f = Alcotest.test_case name `Quick f

(* Every builder, each call a fresh graph, so that one test's failures
   never leak into the next. The flattened butterfly of 6 has degree 10:
   two mask and tree bytes per vertex. *)
let builders =
  [
    ("4x4x4 torus", fun () -> Topology.torus [| 4; 4; 4 |]);
    ("3x4 mesh", fun () -> Topology.mesh [| 3; 4 |]);
    ("clos", fun () -> Topology.clos ~leaves:3 ~spines:2 ~servers_per_leaf:2);
    ("hypercube", fun () -> Topology.hypercube 4);
    ( "bridged pair",
      fun () ->
        Topology.bridge (Topology.torus [| 3; 3 |]) (Topology.mesh [| 2; 3 |])
          ~cables:[ (0, 0); (4, 5) ] );
    ("fb 6", fun () -> Topology.flattened_butterfly 6);
  ]

let torus333 = lazy (Topology.torus [| 3; 3; 3 |])
let torus44 = lazy (Topology.torus [| 4; 4 |])
let mesh44 = lazy (Topology.mesh [| 4; 4 |])
let torus888 = lazy (Topology.torus [| 8; 8; 8 |])

let torus_counts () =
  let t = Lazy.force torus333 in
  Alcotest.(check int) "27 nodes" 27 (Topology.host_count t);
  Alcotest.(check int) "equal vertices" 27 (Topology.vertex_count t);
  (* 3D torus with k=3: every node has 6 neighbors -> 27*6 directed links *)
  Alcotest.(check int) "162 directed links" 162 (Topology.link_count t)

let torus_degree_uniform () =
  let t = Lazy.force torus333 in
  for v = 0 to 26 do
    Alcotest.(check int) "degree 6" 6 (Topology.degree t v)
  done

let mesh_corner_degree () =
  let t = Lazy.force mesh44 in
  Alcotest.(check int) "corner degree 2" 2 (Topology.degree t 0);
  (* interior node (1,1) = 1 + 4 = 5 *)
  Alcotest.(check int) "interior degree 4" 4 (Topology.degree t 5)

let k2_dimension_no_double_link () =
  let t = Topology.torus [| 2; 2 |] in
  (* k=2 wraparound degenerates: each node has exactly 2 neighbors. *)
  for v = 0 to 3 do
    Alcotest.(check int) "degree 2" 2 (Topology.degree t v)
  done

let coords_roundtrip () =
  let t = Lazy.force torus333 in
  for v = 0 to 26 do
    Alcotest.(check int) "roundtrip" v (Topology.of_coords t (Topology.coords t v))
  done

let torus_distance_analytic () =
  let t = Lazy.force torus44 in
  let d a b =
    Topology.distance t (Topology.of_coords t [| fst a; snd a |])
      (Topology.of_coords t [| fst b; snd b |])
  in
  Alcotest.(check int) "adjacent" 1 (d (0, 0) (1, 0));
  Alcotest.(check int) "wraparound" 1 (d (0, 0) (3, 0));
  Alcotest.(check int) "diagonal" 4 (d (0, 0) (2, 2));
  Alcotest.(check int) "self" 0 (d (1, 1) (1, 1))

let distance_symmetric () =
  let t = Lazy.force torus333 in
  for u = 0 to 26 do
    for v = 0 to 26 do
      Alcotest.(check int) "symmetric" (Topology.distance t u v) (Topology.distance t v u)
    done
  done

let mesh_no_wrap () =
  let t = Lazy.force mesh44 in
  let a = Topology.of_coords t [| 0; 0 |] and b = Topology.of_coords t [| 3; 0 |] in
  Alcotest.(check int) "no wrap: 3 hops" 3 (Topology.distance t a b)

let diameter_torus () =
  Alcotest.(check int) "4x4 torus diameter" 4 (Topology.diameter (Lazy.force torus44));
  Alcotest.(check int) "8x8x8 torus diameter" 12 (Topology.diameter (Lazy.force torus888))

let average_distance_512 () =
  (* k-ary n-cube uniform average ~ n*k/4 = 6 for 8x8x8. *)
  let avg = Topology.average_distance (Lazy.force torus888) in
  Alcotest.(check bool) "near 6 hops" true (abs_float (avg -. 6.0) < 0.2)

let bisection_values () =
  Alcotest.(check int) "8x8x8 torus" 256 (Topology.bisection_links (Lazy.force torus888));
  Alcotest.(check int) "4x4 torus" 16 (Topology.bisection_links (Lazy.force torus44));
  Alcotest.(check int) "4x4 mesh" 8 (Topology.bisection_links (Lazy.force mesh44))

let productive_hops_shrink_distance () =
  let t = Lazy.force torus888 in
  let rng = Util.Rng.create 3 in
  for _ = 1 to 200 do
    let u = Util.Rng.int rng 512 and d = Util.Rng.int rng 512 in
    if u <> d then begin
      let hops = Topology.productive_hops t u ~dst:d in
      Alcotest.(check bool) "at least one productive hop" true (Array.length hops > 0);
      Array.iter
        (fun (v, l) ->
          Alcotest.(check int) "distance decreases" (Topology.distance t u d - 1)
            (Topology.distance t v d);
          Alcotest.(check int) "link src" u (Topology.link_src t l);
          Alcotest.(check int) "link dst" v (Topology.link_dst t l))
        hops
    end
  done

(* [find_link_id] scans a vertex's neighbours: on every builder it must
   name the link a search of [out_links] finds for every ordered pair
   ([find_link] and [cable_ids] agreeing), and -1 for a pair that is not
   adjacent or off the graph. *)
let find_link_consistent () =
  List.iter
    (fun (name, build) ->
      let t = build () in
      let n = Topology.vertex_count t in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let want = Array.find_opt (fun (w, _) -> w = v) (Topology.out_links t u) in
          let pair = Printf.sprintf "%s: %d -> %d" name u v in
          Alcotest.(check int) pair (Option.fold ~none:(-1) ~some:snd want)
            (Topology.find_link_id t u v);
          Alcotest.(check (option int)) pair (Option.map snd want) (Topology.find_link t u v);
          Option.iter
            (fun (_, l) ->
              Alcotest.(check (pair int int)) (pair ^ ": cable_ids")
                (l, Topology.find_link_id t v u)
                (Topology.cable_ids t u v))
            want
        done
      done;
      List.iter
        (fun (u, v) ->
          let pair = Printf.sprintf "%s: %d -> %d off the graph" name u v in
          Alcotest.(check (option int)) pair None (Topology.find_link t u v);
          Alcotest.(check int) pair (-1) (Topology.find_link_id t u v))
        [ (-1, 0); (0, -1); (n, 0); (0, n); (n - 1, n); (min_int, max_int) ])
    builders

(* The ports [productive_ports] reads from a mask row must be the ports
   that pass the productive test, in port order, for every vertex and
   destination: filtered here from [out_links] over the distances and a
   liveness kept by the test itself (a link is alive iff the test has
   not failed its cable and both ends are up), so neither the masks nor
   the liveness bytes are trusted. Checked on a fresh graph and after
   each fault and repair. Each check reads every row, so the next change
   meets filled rows, and a row it keeps wrongly shows. *)
let masks_match_productive_under_faults () =
  List.iter
    (fun (name, build) ->
      let t = build () in
      let n = Topology.vertex_count t in
      let ports = Array.make (Topology.link_count t) 0 in
      let cut = ref [] in
      let alive l =
        let u = Topology.link_src t l and v = Topology.link_dst t l in
        Topology.node_alive t u && Topology.node_alive t v
        && not (List.mem (min u v, max u v) !cut)
      in
      let check step =
        for l = 0 to Topology.link_count t - 1 do
          if Topology.link_alive t l <> alive l then
            Alcotest.failf "%s, %s: link %d alive = %b" name step l (Topology.link_alive t l)
        done;
        for dst = 0 to n - 1 do
          let d = Topology.dist_to t dst and row = Topology.mask_row t ~dst in
          for u = 0 to n - 1 do
            let want =
              List.concat
                (List.mapi
                   (fun i (v, l) -> if d.(v) = d.(u) - 1 && alive l then [ i ] else [])
                   (Array.to_list (Topology.out_links t u)))
            in
            let k = Topology.productive_ports t ~row u ports in
            let got = Array.to_list (Array.sub ports 0 k) in
            if got <> want then
              Alcotest.failf "%s, %s: %d towards %d: ports [%s], want [%s]" name step u dst
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int want))
          done
        done
      in
      let u, v = (1, fst (Topology.out_links t 1).(0)) and w = n - 2 in
      check "fresh";
      Topology.fail_link t u v;
      cut := [ (min u v, max u v) ];
      check "fail_link";
      Topology.fail_node t v;
      check "fail_node (an end of the cut)";
      Topology.fail_node t w;
      check "fail_node";
      Topology.restore_link t u v;
      cut := [];
      check "restore_link (an end still down)";
      Topology.restore_node t v;
      check "restore_node";
      Topology.restore_node t w;
      check "restore_node (all up)";
      (* A cable cut and restored with both ends up: the restore keeps
         every row whose distances it cannot shorten, and must still drop
         each row towards which its ends are one hop apart, since the
         cable turns productive there with no distance moving. *)
      Topology.fail_link t u v;
      cut := [ (min u v, max u v) ];
      check "fail_link (both ends up)";
      Topology.restore_link t u v;
      cut := [];
      check "restore_link (both ends up)")
    builders

let clos_structure () =
  let t = Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:4 in
  Alcotest.(check int) "16 hosts" 16 (Topology.host_count t);
  Alcotest.(check int) "22 vertices" 22 (Topology.vertex_count t);
  (* server-server same leaf: 2 hops; across leaves: 4 hops *)
  Alcotest.(check int) "same leaf" 2 (Topology.distance t 0 1);
  Alcotest.(check int) "cross leaf" 4 (Topology.distance t 0 15);
  Alcotest.(check int) "bisection" 8 (Topology.bisection_links t)

(* The parent of every vertex a tree reaches: the near end of the link
   whose bit is set, read straight from the tree's bytes. *)
let tree_parents t (tr : Topology.tree) =
  let lay = Topology.tree_layout t in
  let parent = Array.make (Topology.vertex_count t) (-1) in
  Bytes.iteri
    (fun y c ->
      for b = 0 to 7 do
        if Char.code c land (1 lsl b) <> 0 then begin
          let l = lay.slot_link.((8 * y) + b) in
          parent.(Topology.link_dst t l) <- Topology.link_src t l
        end
      done)
    (tr :> Bytes.t);
  parent

let spanning_tree_is_shortest () =
  let t = Lazy.force torus888 in
  let root = 17 in
  for variant = 0 to 3 do
    let parent = tree_parents t (Topology.shortest_path_tree t ~root ~variant) in
    Alcotest.(check int) "root has no parent" (-1) parent.(root);
    (* Every vertex reached, and tree depth equals BFS distance. *)
    let rec depth v = if v = root then 0 else 1 + depth parent.(v) in
    for v = 0 to Topology.vertex_count t - 1 do
      Alcotest.(check bool) "reached" true (v = root || parent.(v) >= 0);
      Alcotest.(check int) "tree path is shortest" (Topology.distance t root v) (depth v)
    done
  done

let tree_variants_differ () =
  let t = Lazy.force torus888 in
  let p0 = Topology.shortest_path_tree t ~root:0 ~variant:0 in
  let p1 = Topology.shortest_path_tree t ~root:0 ~variant:1 in
  Alcotest.(check bool) "variants give different trees" false
    (Bytes.equal (p0 :> Bytes.t) (p1 :> Bytes.t))

let tree_children_sizes () =
  let t = Lazy.force torus44 in
  let tr = Topology.shortest_path_tree t ~root:0 ~variant:0 in
  let total = ref 0 in
  for v = 0 to 15 do
    Topology.iter_tree_links t tr v (fun _ -> incr total)
  done;
  Alcotest.(check int) "n-1 edges" 15 !total;
  Alcotest.(check int) "one byte of 4 slots per vertex" 16 (Bytes.length (tr :> Bytes.t))

(* Words [f ()] allocates, in the minor and the major heap alike (a block
   of more than 256 words goes straight to the major heap), less what one
   reading of the counters costs. The minor count is [Gc.minor_words]:
   [Gc.counters] reads the current minor-heap chunk an eighth short under
   OCaml 5.1. *)
let words_allocated f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let t0 = total () in
  let t1 = total () in
  let x = f () in
  let t2 = total () in
  (x, t2 -. t1 -. (t1 -. t0))

(* The zero-allocation bound of the searches: on a fresh graph, each cold
   [dist_to] and each spanning tree allocates its result and nothing else
   (no queue cell, closure or parent array), on a 64-vertex torus and on
   512 vertices, whose distance arrays do not fit the minor heap. The
   trees are measured once the graph's tree layout exists: the first
   tree builds it. *)
let cold_searches_allocate_only_their_output () =
  List.iter
    (fun dims ->
      let t = Topology.torus dims in
      let n = Topology.vertex_count t in
      let name = Printf.sprintf "%d vertices" n in
      for dst = 0 to n - 1 do
        let d, words = words_allocated (fun () -> Topology.dist_to t dst) in
        Alcotest.(check (float 0.0)) (name ^ ": cold dist_to allocates its array only")
          (float_of_int (Obj.reachable_words (Obj.repr d))) words
      done;
      ignore (Topology.tree_layout t);
      for root = 0 to n - 1 do
        let variant = root mod 4 in
        let tr, words = words_allocated (fun () -> Topology.shortest_path_tree t ~root ~variant) in
        Alcotest.(check (float 0.0)) (name ^ ": a tree allocates its bytes only")
          (float_of_int (Obj.reachable_words (Obj.repr tr))) words
      done;
      let b = Broadcast.make t in
      let fib, words = words_allocated (fun () -> Broadcast.fib b ~src:3 ~tree:1) in
      Alcotest.(check (float 0.0)) (name ^ ": a cold FIB is its tree and a 5-word cache cell")
        (float_of_int (Obj.reachable_words (Obj.repr fib) + 5))
        words)
    [ [| 4; 4; 4 |]; [| 8; 8; 8 |] ]

(* Building a graph does no work for its trees or masks: the tree
   layout waits for the first tree, the mask store for the first mask
   read. The ceilings are the words [Topology.torus] allocates with CSR
   adjacency and no link matrix, under OCaml 5.1 (15,248 and 350,800
   with the matrix). Nor does a fresh graph keep a vertex-by-vertex
   structure: an 8x8x8 torus is about 8 words per link (its tuples, CSR
   arrays and down-state), where a 512 x 512 link matrix alone was 85. *)
let torus_build_words_bounded () =
  List.iter
    (fun (dims, ceiling) ->
      let t, words = words_allocated (fun () -> Topology.torus dims) in
      let n = Array.fold_left ( * ) 1 dims in
      Alcotest.(check bool)
        (Printf.sprintf "%d vertices: %.0f words <= %d" n words ceiling)
        true
        (words <= float_of_int ceiling);
      let held = Obj.reachable_words (Obj.repr t) and links = Topology.link_count t in
      Alcotest.(check bool)
        (Printf.sprintf "%d vertices: %d words held <= 10 x %d links" n held links)
        true
        (held <= 10 * links))
    [ ([| 4; 4; 4 |], 10_946); ([| 8; 8; 8 |], 86_994) ]

(* A cable is removed by failing it on the down-state overlay; a fresh
   torus, since the overlay mutates it. *)
let remove_link_reroutes () =
  let t = Topology.torus [| 4; 4 |] in
  Topology.fail_link t 0 1;
  let alive u v = Topology.link_alive t (Option.get (Topology.find_link t u v)) in
  Alcotest.(check bool) "link gone" false (alive 0 1);
  Alcotest.(check bool) "reverse gone" false (alive 1 0);
  (* Still connected: the shortest detour on a 2D torus is 3 hops (no
     single vertex is adjacent to both endpoints). *)
  Alcotest.(check int) "rerouted distance" 3 (Topology.distance t 0 1);
  Topology.restore_link t 0 1;
  Alcotest.(check int) "restored distance" 1 (Topology.distance t 0 1)

let remove_link_rejects_non_adjacent () =
  let t = Topology.torus [| 4; 4 |] in
  let err = Invalid_argument "Topology: vertices not adjacent" in
  Alcotest.check_raises "fail non-adjacent" err (fun () -> Topology.fail_link t 0 10);
  Alcotest.check_raises "restore non-adjacent" err (fun () -> Topology.restore_link t 0 10)

let hypercube_structure () =
  let t = Topology.hypercube 4 in
  Alcotest.(check int) "16 nodes" 16 (Topology.host_count t);
  for v = 0 to 15 do
    Alcotest.(check int) "degree n" 4 (Topology.degree t v)
  done;
  Alcotest.(check int) "diameter n" 4 (Topology.diameter t);
  (* Distance = Hamming distance of vertex labels. *)
  let rng = Util.Rng.create 3 in
  for _ = 1 to 100 do
    let u = Util.Rng.int rng 16 and v = Util.Rng.int rng 16 in
    let hamming = ref 0 in
    for b = 0 to 3 do
      if (u lsr b) land 1 <> (v lsr b) land 1 then incr hamming
    done;
    Alcotest.(check int) "hamming distance" !hamming (Topology.distance t u v)
  done

let flattened_butterfly_structure () =
  let t = Topology.flattened_butterfly 4 in
  Alcotest.(check int) "16 nodes" 16 (Topology.host_count t);
  for v = 0 to 15 do
    Alcotest.(check int) "degree 2(k-1)" 6 (Topology.degree t v)
  done;
  Alcotest.(check int) "diameter 2" 2 (Topology.diameter t);
  (* Same row: 1 hop; different row and column: 2 hops. *)
  let id x y = Topology.of_coords t [| x; y |] in
  Alcotest.(check int) "same row" 1 (Topology.distance t (id 0 0) (id 3 0));
  Alcotest.(check int) "same column" 1 (Topology.distance t (id 0 0) (id 0 3));
  Alcotest.(check int) "diagonal" 2 (Topology.distance t (id 0 0) (id 2 3));
  (* Bisection: per row (k/2)^2 cables cross -> 2 * 4 * 4 directed. *)
  Alcotest.(check int) "bisection" 32 (Topology.bisection_links t)

let flattened_butterfly_routing () =
  let t = Topology.flattened_butterfly 4 in
  let ctx = Routing.make t in
  let rng = Util.Rng.create 5 in
  for _ = 1 to 50 do
    let src = Util.Rng.int rng 16 and dst = Util.Rng.int rng 16 in
    if src <> dst then begin
      let p = Routing.sample_path ctx rng Routing.Rps ~src ~dst in
      Alcotest.(check int) "minimal" (Topology.distance t src dst) (Array.length p - 1);
      (* Degree 6 fits the 3-bit wire selector. *)
      ignore (Wire.route_selectors ctx p)
    end
  done

let qcheck_bfs_matches_torus_formula =
  QCheck.Test.make ~name:"BFS distance = torus manhattan-with-wrap" ~count:300
    QCheck.(pair (int_bound 511) (int_bound 511))
    (fun (u, v) ->
      let t = Lazy.force torus888 in
      let cu = Topology.coords t u and cv = Topology.coords t v in
      let expected = ref 0 in
      for i = 0 to 2 do
        let d = abs (cu.(i) - cv.(i)) in
        expected := !expected + min d (8 - d)
      done;
      Topology.distance t u v = !expected)

let suites =
  [
    ( "topology",
      [
        tc "torus link/node counts" torus_counts;
        tc "torus degree uniform" torus_degree_uniform;
        tc "mesh corner degrees" mesh_corner_degree;
        tc "k=2 dims avoid duplicate cables" k2_dimension_no_double_link;
        tc "coords roundtrip" coords_roundtrip;
        tc "torus distances" torus_distance_analytic;
        tc "distance symmetric" distance_symmetric;
        tc "mesh has no wraparound" mesh_no_wrap;
        tc "diameters" diameter_torus;
        tc "512-node average distance ~6" average_distance_512;
        tc "bisection link counts" bisection_values;
        tc "productive hops shrink distance" productive_hops_shrink_distance;
        tc "find_link consistent with out_links" find_link_consistent;
        tc "masks = productive ports under faults, every builder" masks_match_productive_under_faults;
        tc "clos structure" clos_structure;
        tc "spanning tree is shortest-path" spanning_tree_is_shortest;
        tc "tree variants differ" tree_variants_differ;
        tc "tree children count" tree_children_sizes;
        tc "cold searches allocate only their output" cold_searches_allocate_only_their_output;
        tc "torus allocates no more words than its ceiling and holds no n^2 structure"
          torus_build_words_bounded;
        tc "remove_link reroutes" remove_link_reroutes;
        tc "remove_link validates" remove_link_rejects_non_adjacent;
        tc "hypercube structure" hypercube_structure;
        tc "flattened butterfly structure" flattened_butterfly_structure;
        tc "flattened butterfly routing + wire" flattened_butterfly_routing;
        QCheck_alcotest.to_alcotest qcheck_bfs_matches_torus_formula;
      ] );
  ]
