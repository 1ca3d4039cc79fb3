(* Tests for lib/broadcast: spanning trees, FIB, overhead model. *)

let tc name f = Alcotest.test_case name `Quick f

let torus888 = lazy (Topology.torus [| 8; 8; 8 |])

let tree_spans_everything () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  let reached = Array.make (Topology.vertex_count topo) false in
  let rec walk v =
    Alcotest.(check bool) "visited once" false reached.(v);
    reached.(v) <- true;
    List.iter walk (Broadcast.children b ~src:0 ~tree:0 v)
  in
  walk 0;
  Alcotest.(check bool) "all vertices reached" true (Array.for_all Fun.id reached)

let tree_edge_count () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  Alcotest.(check int) "n-1 edges" 511 (List.length (Broadcast.edges b ~src:3 ~tree:1))

let tree_depth_is_eccentricity () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  (* Shortest-path tree depth = max distance from root = 12 on 8x8x8. *)
  for tree = 0 to 3 do
    Alcotest.(check int) "depth = diameter" 12 (Broadcast.depth b ~src:5 ~tree)
  done

let delivery_hops_are_shortest () =
  let topo = Lazy.force torus888 in
  let b = Broadcast.make topo in
  let hops = Broadcast.delivery_hops b ~src:9 ~tree:2 in
  for v = 0 to Topology.vertex_count topo - 1 do
    Alcotest.(check int) "tree delivery = shortest distance" (Topology.distance topo 9 v) hops.(v)
  done

let parents_consistent_with_children () =
  let topo = Topology.torus [| 4; 4 |] in
  let b = Broadcast.make topo in
  for v = 0 to 15 do
    List.iter
      (fun c -> Alcotest.(check int) "parent of child" v (Broadcast.parent b ~src:2 ~tree:0 c))
      (Broadcast.children b ~src:2 ~tree:0 v)
  done

let choose_tree_spreads () =
  let topo = Topology.torus [| 4; 4 |] in
  let b = Broadcast.make ~trees_per_source:4 topo in
  let rng = Util.Rng.create 3 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Broadcast.choose_tree b rng ~src:0) <- true
  done;
  Alcotest.(check bool) "all trees used" true (Array.for_all Fun.id seen)

let bytes_per_broadcast_512 () =
  (* §3.2: "with a 512-node rack, each broadcast results in ~8 KB". *)
  let topo = Lazy.force torus888 in
  Alcotest.(check int) "16 * 511" 8176 (Broadcast.bytes_per_broadcast topo)

let relative_overhead_10kb () =
  (* §3.2: a 10 KB flow's start+finish broadcasts cost ~26.66% of its wire
     bytes on the 512-node 3D torus. *)
  let topo = Lazy.force torus888 in
  let ov = Broadcast.relative_flow_overhead topo ~flow_bytes:10_000 in
  Alcotest.(check bool) (Printf.sprintf "~0.27 (got %.4f)" ov) true (abs_float (ov -. 0.27) < 0.02)

let relative_overhead_10mb () =
  (* §5.1: for 10 MB flows the overhead is ~0.026%. *)
  let topo = Lazy.force torus888 in
  let ov = Broadcast.relative_flow_overhead topo ~flow_bytes:10_000_000 in
  Alcotest.(check bool) "~0.00027" true (abs_float (ov -. 0.00027) < 0.00005)

let analytic_overhead_5pct () =
  (* §3.2: "When 5% of the bytes are carried by small flows, the fraction of
     the network capacity used for broadcasting flow information is only
     1.3%." *)
  let topo = Lazy.force torus888 in
  let ov =
    Broadcast.analytic_overhead topo ~frac_small_bytes:0.05 ~small_size:10_000
      ~large_size:35_000_000
  in
  Alcotest.(check bool) (Printf.sprintf "~1.3%% (got %.2f%%)" (100. *. ov)) true
    (abs_float (ov -. 0.013) < 0.002)

let analytic_overhead_monotone () =
  let topo = Lazy.force torus888 in
  let prev = ref (-1.0) in
  List.iter
    (fun frac ->
      let ov =
        Broadcast.analytic_overhead topo ~frac_small_bytes:frac ~small_size:10_000
          ~large_size:35_000_000
      in
      Alcotest.(check bool) "monotone in small-flow bytes" true (ov >= !prev);
      prev := ov)
    [ 0.0; 0.1; 0.2; 0.5; 1.0 ]

let greater_diameter_lower_overhead () =
  (* Fig. 9: topologies with greater diameter have lower broadcast overhead
     because data travels more hops. *)
  let ov topo =
    Broadcast.analytic_overhead topo ~frac_small_bytes:0.2 ~small_size:10_000
      ~large_size:35_000_000
  in
  let torus3d = ov (Lazy.force torus888) in
  let mesh3d = ov (Topology.mesh [| 8; 8; 8 |]) in
  let torus2d = ov (Topology.torus [| 32; 16 |]) in
  Alcotest.(check bool) "mesh < torus3d" true (mesh3d < torus3d);
  Alcotest.(check bool) "2D torus < 3D torus" true (torus2d < torus3d)

let out_of_range_rejected () =
  let topo = Topology.torus [| 4; 4 |] in
  let b = Broadcast.make topo in
  let src_err = Invalid_argument "Broadcast: src out of range" in
  let tree_err = Invalid_argument "Broadcast: tree id out of range" in
  Alcotest.check_raises "src too large" src_err (fun () ->
      ignore (Broadcast.children b ~src:16 ~tree:0 0));
  Alcotest.check_raises "src negative" src_err (fun () ->
      ignore (Broadcast.depth b ~src:(-1) ~tree:0));
  Alcotest.check_raises "tree too large" tree_err (fun () ->
      ignore (Broadcast.fib b ~src:0 ~tree:4));
  Alcotest.check_raises "tree_valid checks src" src_err (fun () ->
      ignore (Broadcast.tree_valid b ~src:16 ~tree:0));
  Alcotest.check_raises "tree_valid checks tree" tree_err (fun () ->
      ignore (Broadcast.tree_valid b ~src:0 ~tree:(-1)))

(* The links whose bits are set in vertex [v]'s bytes of [fib], lowest
   bit first, read from the raw bytes and the layout's slot table. *)
let fib_links topo (fib : Broadcast.fib) v =
  let lay = Topology.tree_layout topo in
  let acc = ref [] in
  for y = lay.first_byte.(v) to lay.first_byte.(v + 1) - 1 do
    for b = 0 to 7 do
      if Char.code (Bytes.get (fib :> Bytes.t) y) land (1 lsl b) <> 0 then
        acc := lay.slot_link.((8 * y) + b) :: !acc
    done
  done;
  List.rev !acc

(* Differential check of the bitmask FIB on every builder and every (src,
   tree) against [Tree_model], the parent-array cache the FIBs replaced:
   each vertex's set bits must name the model's children in ascending
   order, over the links [Topology.find_link_id] names, and the derived
   parent, hops and edges must be the model's. Flooding over the FIB's
   links must leave each forwarding vertex, reach every alive vertex
   reachable from [src] exactly once over alive links, and hold a dead
   link only towards a vertex out of reach (a tree that lost only such
   vertices stays valid). *)
let check_all_trees name topo b m =
  let n = Topology.vertex_count topo in
  for src = 0 to n - 1 do
    for tree = 0 to Broadcast.trees_per_source b - 1 do
      let ctx = Printf.sprintf "%s src %d tree %d" name src tree in
      let parent = Tree_model.parent_array m ~src ~tree in
      let expected = Tree_model.tree_children parent ~root:src in
      let fib = Broadcast.fib b ~src ~tree in
      Alcotest.(check int) (ctx ^ ": one bit per out-link")
        (Topology.tree_layout topo).first_byte.(n)
        (Bytes.length (fib :> Bytes.t));
      for v = 0 to n - 1 do
        Alcotest.(check (list int)) (ctx ^ ": children") expected.(v)
          (Broadcast.children b ~src ~tree v);
        Alcotest.(check (list int)) (ctx ^ ": links")
          (List.map (Topology.find_link_id topo v) expected.(v))
          (fib_links topo fib v)
      done;
      Alcotest.(check (array int)) (ctx ^ ": parents") parent
        (Array.init n (Broadcast.parent b ~src ~tree));
      Alcotest.(check (array int)) (ctx ^ ": hops") (Tree_model.hops parent ~root:src)
        (Broadcast.delivery_hops b ~src ~tree);
      Alcotest.(check (list (pair int int))) (ctx ^ ": edges")
        (List.filter_map
           (fun v -> if v <> src && parent.(v) >= 0 then Some (parent.(v), v) else None)
           (List.init n Fun.id))
        (Broadcast.edges b ~src ~tree);
      let visits = Array.make n 0 in
      let rec flood v =
        visits.(v) <- visits.(v) + 1;
        List.iter
          (fun l ->
            let c = Topology.link_dst topo l in
            Alcotest.(check int) (ctx ^ ": link leaves the forwarder") v (Topology.link_src topo l);
            if Topology.link_alive topo l then flood c
            else
              Alcotest.(check bool) (ctx ^ ": dead link leads out of reach") false
                (Topology.reachable topo src c))
          (fib_links topo fib v)
      in
      if Topology.node_alive topo src then flood src;
      for v = 0 to n - 1 do
        let want = if Topology.reachable topo src v then 1 else 0 in
        Alcotest.(check int) (Printf.sprintf "%s: copies at %d" ctx v) want visits.(v)
      done
    done
  done

(* [Broadcast.tree_valid] against the model's edge-by-edge check, then one
   [repair_all] on both sides: the same trees must be rebuilt. *)
let check_repair name topo b m =
  let n = Topology.vertex_count topo in
  for src = 0 to n - 1 do
    for tree = 0 to Broadcast.trees_per_source b - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s src %d tree %d: tree_valid" name src tree)
        (Tree_model.tree_valid m ~src ~tree) (Broadcast.tree_valid b ~src ~tree)
    done
  done;
  let rebuilt = Broadcast.repair_all b in
  let before = m.Tree_model.repairs in
  for src = 0 to n - 1 do
    for tree = 0 to Broadcast.trees_per_source b - 1 do
      ignore (Tree_model.parent_array m ~src ~tree)
    done
  done;
  Alcotest.(check int) (name ^ ": trees rebuilt") (m.Tree_model.repairs - before) rebuilt;
  check_all_trees name topo b m

let fib_matches_tree_children_everywhere () =
  List.iter
    (fun (name, topo, node) ->
      let b = Broadcast.make topo in
      let m = Tree_model.make ~trees:(Broadcast.trees_per_source b) topo in
      check_all_trees name topo b m;
      let n = Topology.vertex_count topo in
      let u = n - 1 in
      let v, _ = (Topology.out_links topo u).(0) in
      Topology.fail_link topo u v;
      check_repair (name ^ " (cable down)") topo b m;
      Alcotest.(check bool) (name ^ ": failure rebuilt some tree") true (Broadcast.repairs b > 0);
      Topology.fail_node topo node;
      check_repair (name ^ " (cable and node down)") topo b m;
      Topology.restore_node topo node;
      Topology.restore_link topo u v;
      check_repair (name ^ " (restored)") topo b m;
      Alcotest.(check int) (name ^ ": repairs") m.Tree_model.repairs (Broadcast.repairs b))
    [
      ("torus", Topology.torus [| 4; 4; 4 |], 21);
      ("mesh", Topology.mesh [| 3; 4 |], 5);
      ("6-cube", Topology.hypercube 6, 42);
      (* Leaf 0: its three servers lose the rack. *)
      ("clos", Topology.clos ~leaves:4 ~spines:2 ~servers_per_leaf:3, 12);
      ("flattened butterfly", Topology.flattened_butterfly 4, 6);
      (* The one cable's rack-a end: the two racks part. *)
      ( "bridged racks",
        Topology.bridge (Topology.torus [| 3; 3 |]) (Topology.mesh [| 2; 3 |]) ~cables:[ (4, 1) ],
        4 );
    ]

(* Every tree of the 8x8x8 rack is kept as its FIB alone: one byte of
   six child bits per vertex, 512 bytes and a few words of cache per
   tree, so all 2,048 hold at most 1.2 MB. Measured as the growth of the
   live heap once the rack's tree layout, which every tree shares,
   exists. *)
let trees_8x8x8_fit_in_1_2mb () =
  let topo = Lazy.force torus888 in
  ignore (Topology.tree_layout topo);
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let b = Broadcast.make topo in
  for src = 0 to Topology.vertex_count topo - 1 do
    for tree = 0 to Broadcast.trees_per_source b - 1 do
      ignore (Broadcast.fib b ~src ~tree)
    done
  done;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let mb = float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1e6 in
  Alcotest.(check bool) (Printf.sprintf "2,048 trees hold %.2f MB <= 1.2 MB" mb) true (mb <= 1.2);
  Alcotest.(check int) "one tree is 512 bytes, a padding word and a header" 528
    (Obj.reachable_words (Obj.repr (Broadcast.fib b ~src:0 ~tree:0)) * (Sys.word_size / 8));
  ignore (Sys.opaque_identity b)

let qcheck_tree_spans =
  QCheck.Test.make ~name:"every (src, tree) FIB spans the rack" ~count:50
    QCheck.(pair (int_bound 63) (int_bound 3))
    (fun (src, tree) ->
      let topo = Topology.torus [| 4; 4; 4 |] in
      let b = Broadcast.make topo in
      let count = ref 0 in
      let rec walk v =
        incr count;
        List.iter walk (Broadcast.children b ~src ~tree v)
      in
      walk src;
      !count = 64)

let suites =
  [
    ( "broadcast",
      [
        tc "tree spans every vertex exactly once" tree_spans_everything;
        tc "tree has n-1 edges" tree_edge_count;
        tc "tree depth equals eccentricity" tree_depth_is_eccentricity;
        tc "delivery hops are shortest distances" delivery_hops_are_shortest;
        tc "parents consistent with children" parents_consistent_with_children;
        tc "tree choice load balances" choose_tree_spreads;
        tc "8 KB per 512-node broadcast (paper)" bytes_per_broadcast_512;
        tc "26.66% overhead for 10 KB flows (paper)" relative_overhead_10kb;
        tc "0.026% overhead for 10 MB flows (paper)" relative_overhead_10mb;
        tc "1.3% capacity at 5% small bytes (paper)" analytic_overhead_5pct;
        tc "overhead monotone in small-flow share" analytic_overhead_monotone;
        tc "greater diameter, lower overhead (Fig 9)" greater_diameter_lower_overhead;
        tc "out-of-range src or tree rejected" out_of_range_rejected;
        tc "FIB bits match tree_children on every builder" fib_matches_tree_children_everywhere;
        tc "2,048 trees of 8x8x8 hold at most 1.2 MB" trees_8x8x8_fit_in_1_2mb;
        QCheck_alcotest.to_alcotest qcheck_tree_spans;
      ] );
  ]
