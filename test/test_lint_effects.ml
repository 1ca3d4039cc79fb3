(* Tests for the interprocedural effect pass (Lint_effects).

   Two layers, mirroring the pass itself:

   - the fixpoint solver is checked by a qcheck differential against a
     naive whole-program reference evaluator on generated call graphs
     (cycles, diamonds, widened nodes included): for every node, the
     worklist summary must equal the union of direct effects over the
     node's DFS-reachable set;

   - the typed-tree extraction and the E1/E2/E3 rules run on in-process
     `Typemod` fixtures (shared with the M-pass tests), driven with
     explicit roots and init spans so positives and negatives are exact. *)

module E = Lint_effects
module ISet = E.ISet

let tc name f = Alcotest.test_case name `Quick f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* -- solver differential ---------------------------------------------------- *)

let iset l = List.fold_left (fun a i -> ISet.add i a) ISet.empty l

(* Naive reference: union the direct effects over the DFS-reachable set
   of each node. O(n²) and obviously correct; the worklist must agree. *)
let reference directs calls f =
  let n = Array.length directs in
  let seen = Array.make n false in
  let rec go i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter go calls.(i)
    end
  in
  go f;
  let acc = ref { E.e_reads = ISet.empty; e_writes = ISet.empty; e_widened = false } in
  Array.iteri
    (fun i (d : E.direct) ->
      if seen.(i) then
        acc :=
          {
            E.e_reads = ISet.union (!acc).E.e_reads d.d_reads;
            e_writes = ISet.union (!acc).E.e_writes d.d_writes;
            e_widened = (!acc).E.e_widened || d.d_widened;
          })
    directs;
  !acc

(* A generated graph: node count, then per node (reads, writes, widened,
   callees). Callees land in range by construction. *)
let graph_gen =
  let open QCheck.Gen in
  int_range 1 20 >>= fun n ->
  list_repeat n
    (pair
       (pair (list_size (int_bound 3) (int_bound 5)) (list_size (int_bound 3) (int_bound 5)))
       (pair
          (frequency [ (5, return false); (1, return true) ])
          (list_size (int_bound 4) (int_bound (max 0 (n - 1))))))
  >|= fun nodes -> (n, nodes)

let graph_print (n, nodes) =
  let node i (((rs, ws), (wd, cs)) : (int list * int list) * (bool * int list)) =
    Printf.sprintf "%d: r[%s] w[%s]%s -> [%s]" i
      (String.concat "," (List.map string_of_int rs))
      (String.concat "," (List.map string_of_int ws))
      (if wd then " widened" else "")
      (String.concat "," (List.map string_of_int cs))
  in
  Printf.sprintf "n=%d\n%s" n (String.concat "\n" (List.mapi node nodes))

let to_arrays (n, nodes) =
  let directs =
    Array.of_list
      (List.map
         (fun (((rs, ws), (wd, _)) : (int list * int list) * (bool * int list)) ->
           { E.d_reads = iset rs; d_writes = iset ws; d_widened = wd })
         nodes)
  in
  let calls =
    Array.of_list (List.map (fun ((_, (_, cs)) : _ * (bool * int list)) -> cs) nodes)
  in
  ignore n;
  (directs, calls)

let qcheck_solver_matches_reference =
  QCheck.Test.make ~count:500 ~name:"effect fixpoint agrees with naive reference"
    (QCheck.make ~print:graph_print graph_gen)
    (fun g ->
      let directs, calls = to_arrays g in
      let got = E.solve directs calls in
      Array.for_all
        (fun i ->
          let want = reference directs calls i in
          let s = got.(i) in
          ISet.equal s.E.e_reads want.E.e_reads
          && ISet.equal s.E.e_writes want.E.e_writes
          && s.E.e_widened = want.E.e_widened)
        (Array.init (Array.length directs) (fun i -> i)))

let solver_cycle () =
  (* 0 → 1 → 2 → 0 with one write at 2 and widening at 1: every node in
     the cycle must see both. *)
  let d w wd = { E.d_reads = ISet.empty; d_writes = iset w; d_widened = wd } in
  let directs = [| d [] false; d [] true; d [ 7 ] false |] in
  let calls = [| [ 1 ]; [ 2 ]; [ 0 ] |] in
  let s = E.solve directs calls in
  Array.iter
    (fun (x : E.summary) ->
      Alcotest.(check bool) "write visible around the cycle" true (ISet.mem 7 x.e_writes);
      Alcotest.(check bool) "widening visible around the cycle" true x.e_widened)
    s

let reachable_basic () =
  let calls = [| [ 1 ]; [ 2 ]; []; [ 4 ]; [] |] in
  let r = E.reachable calls [ 0 ] in
  Alcotest.(check (list bool))
    "0,1,2 reachable; 3,4 not"
    [ true; true; true; false; false ]
    (Array.to_list r)

(* -- typed fixtures ---------------------------------------------------------- *)

let type_unit = Test_lint_typed.type_unit
let registry src = Lint_typed.load_registry_src ~file:"ownership.sexp" src

let analyze ?roots ?(init_spans = []) ~reg ~name src =
  E.analyze ?roots ~init_spans ~registry:(registry reg) [ type_unit ~name src ]

let by_rule rule (res : E.result) =
  List.filter (fun v -> v.Lint_core.rule = rule) res.eff_violations

let check_count name n vs = Alcotest.(check int) name n (List.length vs)

let shard_reg ~key =
  String.concat "\n"
    [
      "((item Fix.shards) (class shard_owned)";
      (if key then " (key node)" else "");
      " (why \"per-node state, keyed by destination node\"))";
    ]

let e1_unkeyed_write_fires () =
  let res =
    analyze ~roots:[ "Fix." ] ~reg:(shard_reg ~key:true) ~name:"Fix"
      (String.concat "\n"
         [
           "let shards : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let handle x = Hashtbl.replace shards 0 x";
         ])
  in
  let e1 = by_rule "E1" res in
  check_count "one E1" 1 e1;
  let v = List.hd e1 in
  Alcotest.(check bool) "names the region" true (contains v.message "Fix.shards");
  Alcotest.(check bool) "names the key" true (contains v.message "'node' argument");
  Alcotest.(check int) "on the write line" 2 v.line

let e1_keyed_write_is_clean () =
  let res =
    analyze ~roots:[ "Fix." ] ~reg:(shard_reg ~key:true) ~name:"Fix"
      (String.concat "\n"
         [
           "let shards : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let handle ~node x = Hashtbl.replace shards node x";
         ])
  in
  check_count "keyed write passes" 0 (by_rule "E1" res)

let e1_transitive_and_unreachable () =
  (* The unkeyed write sits two calls below the root; a sibling writer
     outside the root's reach must stay silent. *)
  let res =
    analyze ~roots:[ "Fix.entry" ] ~reg:(shard_reg ~key:true) ~name:"Fix"
      (String.concat "\n"
         [
           "let shards : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let helper x = Hashtbl.replace shards 1 x";
           "let middle x = helper (x + 1)";
           "let entry x = middle x";
           "let unreachable_writer x = Hashtbl.replace shards 2 x";
         ])
  in
  let e1 = by_rule "E1" res in
  check_count "only the reachable writer fires" 1 e1;
  Alcotest.(check bool)
    "attributed to helper" true
    (contains (List.hd e1).message "Fix.helper");
  (* and the cut-set witnesses the region with the concrete writer *)
  match List.find_opt (fun c -> c.E.c_item = "Fix.shards") res.cut_set with
  | Some c ->
      Alcotest.(check string) "witnessed" "witnessed" c.c_via;
      Alcotest.(check (list string)) "writer" [ "Fix.helper" ] c.c_writers
  | None -> Alcotest.fail "Fix.shards missing from the cut-set"

let e1_missing_key_is_named () =
  let res =
    analyze ~roots:[ "Fix." ] ~reg:(shard_reg ~key:false) ~name:"Fix"
      (String.concat "\n"
         [
           "let shards : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let handle ~node x = Hashtbl.replace shards node x";
         ])
  in
  let e1 = by_rule "E1" res in
  check_count "no declared key still fires" 1 e1;
  Alcotest.(check bool)
    "asks for a (key …) entry" true
    (contains (List.hd e1).message "(key");
  ignore e1

(* Writes through lib/'s int-keyed table reach the region behind it. *)
let itbl_writes_reported () =
  let res =
    E.analyze ~roots:[ "Fix." ] ~init_spans:[] ~registry:(registry (shard_reg ~key:true))
      [
        Test_lint_typed.type_util_unit ~name:"Fix"
          (String.concat "\n"
             [
               "type cell = { mutable v : int }";
               "let shards : cell Util.Itbl.t = Util.Itbl.create 8";
               "let handle x = Util.Itbl.replace shards 0 { v = x }";
               "let keyed ~node x = Util.Itbl.replace shards node { v = x }";
               "let through ~node x = (Util.Itbl.find shards node).v <- x";
               "let through_any x = (Util.Itbl.find shards 0).v <- x";
               "let drop () = Util.Itbl.filter_map_inplace (fun _ c -> Some c) shards";
             ]);
      ]
  in
  let e1 = by_rule "E1" res in
  Alcotest.(check (list int)) "unkeyed replace, find-through and filter fire" [ 3; 6; 7 ]
    (List.sort Int.compare (List.map (fun v -> v.Lint_core.line) e1));
  (match List.find_opt (fun c -> c.E.c_item = "Fix.shards") res.cut_set with
  | Some c ->
      Alcotest.(check bool) "the keyed find-through is a witnessed write" true
        (List.mem "Fix.through" c.c_writers)
  | None -> Alcotest.fail "Fix.shards missing from the cut-set");
  let owner =
    String.concat "\n"
      [
        "module Owner = struct";
        "  let cfg : int Util.Itbl.t = Util.Itbl.create 8";
        "  let set x = Util.Itbl.replace cfg 0 x";
        "end";
        "module Other = struct";
        "  let clobber () = Util.Itbl.remove Owner.cfg 0";
        "end";
      ]
  in
  let res =
    E.analyze ~init_spans:[]
      ~registry:(registry "((item Fix.Owner.cfg) (class shared_readonly) (why \"frozen\"))")
      [ Test_lint_typed.type_util_unit ~name:"Fix" owner ]
  in
  let e2 = by_rule "E2" res in
  check_count "the foreign remove fires" 1 e2;
  Alcotest.(check bool) "blames the clobberer" true
    (contains (List.hd e2).message "Fix.Other.clobber")

let shared_fixture =
  String.concat "\n"
    [
      "module Owner = struct";
      "  let cfg : int ref = ref 0";
      "  let set x = cfg := x";
      "end";
      "module Other = struct";
      "  let clobber x = Owner.cfg := x";
      "end";
    ]

let shared_reg =
  "((item Fix.Owner.cfg) (class shared_readonly) (why \"frozen after setup\"))"

let e2_foreign_write_fires () =
  let res = analyze ~reg:shared_reg ~name:"Fix" shared_fixture in
  let e2 = by_rule "E2" res in
  check_count "only the foreign write fires" 1 e2;
  let v = List.hd e2 in
  Alcotest.(check bool) "blames the clobberer" true (contains v.message "Fix.Other.clobber");
  Alcotest.(check bool) "names the owner" true (contains v.message "Fix.Owner");
  Alcotest.(check int) "on the write line" 6 v.line

let e2_init_span_exempts () =
  let res =
    analyze ~init_spans:[ ("fix.ml", [ (5, 7) ]) ] ~reg:shared_reg ~name:"Fix"
      shared_fixture
  in
  check_count "write inside the init span passes" 0 (by_rule "E2" res)

let e2_module_init_is_foreign_too () =
  (* A toplevel `let () = …` pools into the unit's (init) pseudo-node,
     which is still outside Owner: E2 applies unless a span covers it. *)
  let src = shared_fixture ^ "\nlet () = Owner.cfg := 9" in
  let res = analyze ~reg:shared_reg ~name:"Fix" src in
  check_count "toplevel foreign init write fires" 2 (by_rule "E2" res)

let float_reg = "((item Fix.acc) (class domain_local) (why \"per-domain samples\"))"

let e3_float_fold_over_region_fires () =
  let res =
    analyze ~roots:[ "Fix." ] ~reg:float_reg ~name:"Fix"
      (String.concat "\n"
         [
           "let acc : (int, float) Hashtbl.t = Hashtbl.create 8";
           "let total () = Hashtbl.fold (fun _ v a -> v +. a) acc 0.";
         ])
  in
  let e3 = by_rule "E3" res in
  check_count "one E3" 1 e3;
  Alcotest.(check bool) "names the region" true (contains (List.hd e3).message "Fix.acc")

let e3_negatives () =
  let src =
    String.concat "\n"
      [
        "let acc : (int, float) Hashtbl.t = Hashtbl.create 8";
        "let pure xs = List.fold_left ( +. ) 0. xs";
        "let ints () = Hashtbl.fold (fun k _ a -> k + a) acc 0";
      ]
  in
  let res = analyze ~roots:[ "Fix." ] ~reg:float_reg ~name:"Fix" src in
  check_count "pure float fold and int fold over region both pass" 0 (by_rule "E3" res);
  (* the same hazard outside the dispatch reach stays silent *)
  let res =
    analyze ~roots:[ "Fix.nothing_matches" ] ~reg:float_reg ~name:"Fix"
      (String.concat "\n"
         [
           "let acc : (int, float) Hashtbl.t = Hashtbl.create 8";
           "let total () = Hashtbl.fold (fun _ v a -> v +. a) acc 0.";
         ])
  in
  check_count "unreachable float fold passes" 0 (by_rule "E3" res)

let widening_and_param_ho () =
  let res =
    analyze ~roots:[ "Fix." ] ~reg:float_reg ~name:"Fix"
      (String.concat "\n"
         [
           "let acc : (int, float) Hashtbl.t = Hashtbl.create 8";
           "type h = { mutable run : int -> unit }";
           "let call (t : h) = t.run 3";
           "let rec iter f xs = match xs with [] -> () | x :: rest -> f x; iter f rest";
         ])
  in
  let fn name = List.find_opt (fun f -> f.E.f_name = name) res.fn_effects in
  (match fn "Fix.call" with
  | Some f -> Alcotest.(check bool) "field dispatch widens" true f.f_widened
  | None -> Alcotest.fail "Fix.call missing from the effect map");
  (match fn "Fix.iter" with
  | Some f ->
      Alcotest.(check bool) "own-parameter application does not widen" false f.f_widened;
      Alcotest.(check bool) "but is recorded as param_ho" true f.f_param_ho
  | None -> Alcotest.fail "Fix.iter missing from the effect map");
  (* widening pulls the never-written region into the cut-set as such *)
  match List.find_opt (fun c -> c.E.c_item = "Fix.acc") res.cut_set with
  | Some c ->
      Alcotest.(check string) "via widened" "widened" c.c_via;
      Alcotest.(check (list string)) "the ⊤ node is the writer" [ "Fix.call" ] c.c_writers
  | None -> Alcotest.fail "widened region missing from the cut-set"

let default_roots_miss_fixture () =
  let res =
    E.analyze ~init_spans:[] ~registry:(registry float_reg)
      [
        type_unit ~name:"Fix"
          "let acc : (int, float) Hashtbl.t = Hashtbl.create 8\nlet f () = Hashtbl.clear acc";
      ]
  in
  Alcotest.(check int) "nothing reachable from the real roots" 0 res.reachable_fns;
  Alcotest.(check int) "empty cut-set" 0 (List.length res.cut_set)

(* -- registry (key …) hygiene, M1 ------------------------------------------- *)

let m1_key_on_wrong_class () =
  let reg =
    registry "((item Fix.hits) (class domain_local) (key node) (why \"counter\"))"
  in
  let r =
    Lint_typed.analyze ~registry:reg [ type_unit ~name:"Fix" "let hits : int ref = ref 0" ]
  in
  let m1_key =
    List.filter
      (fun v -> v.Lint_core.rule = "M1" && contains v.Lint_core.message "key")
      r.typed_violations
  in
  check_count "key on domain_local is M1" 1 m1_key

let m1_key_on_shard_owned_ok () =
  let reg = registry (shard_reg ~key:true) in
  let r =
    Lint_typed.analyze ~registry:reg
      [ type_unit ~name:"Fix" "let shards : (int, int) Hashtbl.t = Hashtbl.create 8" ]
  in
  check_count "key on shard_owned is clean" 0
    (List.filter
       (fun v -> v.Lint_core.rule = "M1" && contains v.Lint_core.message "key")
       r.typed_violations)

let suites =
  [
    ( "lint_effects:solver",
      [
        QCheck_alcotest.to_alcotest qcheck_solver_matches_reference;
        tc "cycle propagation" solver_cycle;
        tc "reachability" reachable_basic;
      ] );
    ( "lint_effects:rules",
      [
        tc "E1 unkeyed write fires" e1_unkeyed_write_fires;
        tc "E1 keyed write clean" e1_keyed_write_is_clean;
        tc "E1 transitive + unreachable" e1_transitive_and_unreachable;
        tc "E1 missing (key …)" e1_missing_key_is_named;
        tc "E2 foreign write fires" e2_foreign_write_fires;
        tc "E1/E2 see writes through Util.Itbl" itbl_writes_reported;
        tc "E2 init span exempts" e2_init_span_exempts;
        tc "E2 module init is foreign" e2_module_init_is_foreign_too;
        tc "E3 float fold over region" e3_float_fold_over_region_fires;
        tc "E3 negatives" e3_negatives;
        tc "widening + param_ho + widened cut-set" widening_and_param_ho;
        tc "default roots miss fixtures" default_roots_miss_fixture;
        tc "M1 key on wrong class" m1_key_on_wrong_class;
        tc "M1 key on shard_owned ok" m1_key_on_shard_owned_ok;
      ] );
  ]
