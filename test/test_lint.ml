(* Tests for tools/lint (r2c2-lint): every rule D1–D3 / S1–S2 on inline
   good/bad fixture snippets, the allow-comment suppression path, and
   fixtures that reproduce the pre-Util.Tbl code this repo was scrubbed
   of — so reverting any one conversion demonstrably re-fails the lint
   gate. *)

let tc name f = Alcotest.test_case name `Quick f

(* This file is itself linted (test/ runs at the Relaxed tier since v3),
   and the allow scanner is a raw line scan — it cannot tell a fixture
   string from a real comment. Fixtures therefore spell the marker with
   a caret, `lint^ allow`, and [q] restores the colon before the string
   reaches the linter. *)
let q = String.map (fun c -> if c = '^' then ':' else c)

let lint ?(in_lib = true) src = Lint_core.lint_source ~file:"fixture.ml" ~in_lib src

let rules_of r = List.map (fun v -> v.Lint_core.rule) r.Lint_core.violations

let check_rules ?in_lib name expected src =
  Alcotest.(check (list string)) name expected (rules_of (lint ?in_lib src))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* -- D1: ambient PRNG ----------------------------------------------------- *)

let d1_random_banned () =
  check_rules "Random.int flagged" [ "D1" ] "let x = Random.int 10";
  check_rules "Random.self_init flagged" [ "D1" ] "let () = Random.self_init ()";
  check_rules "Stdlib-qualified flagged" [ "D1" ] "let x = Stdlib.Random.bits ()";
  check_rules "State submodule flagged" [ "D1" ] "let s = Random.State.make [| 1 |]";
  check_rules "open Random flagged" [ "D1" ] "open Random\nlet x = int 10";
  (* D1 holds in bench/ too: benches must be reproducible from their seed. *)
  check_rules ~in_lib:false "banned in bench too" [ "D1" ] "let x = Random.int 10"

let d1_util_rng_ok () =
  check_rules "Util.Rng is the sanctioned PRNG" []
    "let x rng = Util.Rng.int rng 10\nlet y rng = Util.Rng.shuffle rng [| 1; 2 |]";
  (* A module merely *named* like the stdlib's entry points is fine. *)
  check_rules "Rng.self_init-free module untouched" [] "let r = Util.Rng.create 42"

(* -- D2: wall clock / environment ----------------------------------------- *)

let d2_wall_clock_banned_in_lib () =
  check_rules "gettimeofday flagged" [ "D2" ] "let t = Unix.gettimeofday ()";
  check_rules "Sys.time flagged" [ "D2" ] "let t = Sys.time ()";
  check_rules "Sys.getenv flagged" [ "D2" ] "let v = Sys.getenv \"SEED\"";
  check_rules "Sys.getenv_opt flagged" [ "D2" ] "let v = Sys.getenv_opt \"SEED\""

let d2_allowed_in_bench () =
  check_rules ~in_lib:false "bench may time itself" []
    "let t0 = Unix.gettimeofday ()\nlet t1 = Sys.time ()"

(* -- D3: raw Hashtbl iteration -------------------------------------------- *)

let d3_raw_iteration_banned_in_lib () =
  check_rules "Hashtbl.fold flagged" [ "D3" ]
    "let f tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []";
  check_rules "Hashtbl.iter flagged" [ "D3" ] "let g tbl = Hashtbl.iter (fun _ _ -> ()) tbl";
  check_rules "first-class reference flagged" [ "D3" ] "let h = Hashtbl.iter";
  check_rules "open Hashtbl flagged" [ "D3" ] "open Hashtbl\nlet n t = length t"

let d3_hint_names_itbl () =
  (* Int keys have their own table, whose only iteration is sorted. *)
  match (lint "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []").violations with
  | [ v ] ->
      Alcotest.(check bool) "int keys: Util.Itbl" true
        (contains v.message "Util.Itbl.fold_sorted for int keys");
      Alcotest.(check bool) "other keys: Util.Tbl" true
        (contains v.message "Util.Tbl.fold_sorted ~cmp")
  | vs -> Alcotest.failf "expected one D3, got %d violations" (List.length vs)

let d3_sorted_and_bench_ok () =
  check_rules "Util.Tbl is the sanctioned iteration" []
    (String.concat "\n"
       [
         "let f tbl = Util.Tbl.fold_sorted ~cmp:Int.compare (fun k v acc -> (k, v) :: acc) tbl []";
         "let g tbl = Util.Tbl.iter_sorted ~cmp:Int.compare (fun _ _ -> ()) tbl";
         "let h tbl = Util.Tbl.sorted_keys ~cmp:Int.compare tbl";
         "let i tbl = Util.Itbl.fold_sorted (fun k v acc -> (k, v) :: acc) tbl []";
         "let j tbl = Util.Itbl.filter_map_inplace (fun _ v -> Some v) tbl";
       ]);
  check_rules "point lookups untouched" []
    "let f tbl k = Hashtbl.find_opt tbl k\nlet g tbl k v = Hashtbl.replace tbl k v";
  (* in_lib:false is the Default tier (bin/, examples/): D3 does not
     apply there — but it DOES at the Relaxed tier, see the tier tests. *)
  check_rules ~in_lib:false "bin/examples may iterate raw" []
    "let f tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []"

(* -- rule tiers ------------------------------------------------------------ *)

let lint_relaxed src =
  Lint_core.lint_source ~tier:Lint_core.Relaxed ~file:"test/fixture.ml" ~in_lib:false src

let relaxed_tier_d_rules_only () =
  (* D1 and D3 stay on: a test or bench iterating a table in hash order
     can mask the exact divergence bug the code under test guards. *)
  Alcotest.(check (list string)) "D1 on at Relaxed" [ "D1" ]
    (rules_of (lint_relaxed "let x = Random.int 10"));
  Alcotest.(check (list string)) "D3 on at Relaxed" [ "D3" ]
    (rules_of (lint_relaxed "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []"));
  (* A bench times itself by design; harness code builds raw fixtures. *)
  Alcotest.(check (list string)) "D2 off at Relaxed" []
    (rules_of (lint_relaxed "let t = Unix.gettimeofday ()"));
  Alcotest.(check (list string)) "S1/S2 off at Relaxed" []
    (rules_of
       (lint_relaxed "let f xs = List.sort compare xs\nlet g () = try List.hd [] with _ -> 0"));
  Alcotest.(check (list string)) "U1 off at Relaxed" []
    (rules_of (lint_relaxed "let s = make ctx ~link_gbps:10.0"))

let tier_of_root_mapping () =
  let t = Lint_core.tier_of_root in
  Alcotest.(check bool) "lib -> Lib" true (t "lib" = Lint_core.Lib);
  Alcotest.(check bool) "../lib -> Lib" true (t "../lib" = Lint_core.Lib);
  Alcotest.(check bool) "bench -> Relaxed" true (t "bench" = Lint_core.Relaxed);
  Alcotest.(check bool) "test/ -> Relaxed" true (t "test/" = Lint_core.Relaxed);
  Alcotest.(check bool) "bin -> Default" true (t "bin" = Lint_core.Default);
  Alcotest.(check bool) "examples -> Default" true (t "examples" = Lint_core.Default)

(* -- S1: Obj.magic and swallowed exceptions ------------------------------- *)

let s1_flagged () =
  check_rules "Obj.magic flagged" [ "S1" ] "let f (x : int) : float = Obj.magic x";
  check_rules "catch-all try flagged" [ "S1" ] "let f () = try List.hd [] with _ -> 0";
  check_rules "catch-all among cases flagged" [ "S1" ]
    "let f () = try List.hd [] with Not_found -> 0 | _ -> 1"

let s1_specific_handlers_ok () =
  check_rules "named exception ok" [] "let f () = try List.hd [] with Not_found -> 0";
  check_rules "binding the exn ok (can reraise)" []
    "let f () = try List.hd [] with e -> raise e"

(* -- S2: bare polymorphic compare ----------------------------------------- *)

let s2_bare_compare_flagged () =
  check_rules "List.sort compare flagged" [ "S2" ] "let f xs = List.sort compare xs";
  check_rules "Array.sort compare flagged" [ "S2" ] "let f a = Array.sort compare a";
  check_rules "List.sort_uniq compare flagged" [ "S2" ] "let f xs = List.sort_uniq compare xs";
  check_rules "Stdlib.compare flagged" [ "S2" ] "let f xs = List.sort Stdlib.compare xs";
  check_rules "flagged in bench too" ~in_lib:false [ "S2" ] "let f xs = List.sort compare xs"

let s2_explicit_comparators_ok () =
  check_rules "Int.compare ok" [] "let f xs = List.sort Int.compare xs";
  check_rules "Float.compare ok" [] "let f xs = List.sort Float.compare xs";
  check_rules "explicit key comparator ok" []
    "let f xs = List.sort (fun (a, _) (b, _) -> Int.compare a b) xs";
  (* Direct application `compare a b` is monomorphised by its arguments at
     the call site; the syntactic rule targets first-class uses only. *)
  check_rules "applied compare not flagged" [] "let f a b = compare a b"

(* -- suppressions --------------------------------------------------------- *)

let allow_same_line () =
  let r =
    lint
      (q
         ("let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] "
         ^ "(* lint^ allow D3 — commutative fold, order irrelevant *)"))
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 r.Lint_core.suppressed

let allow_previous_line () =
  let r =
    lint
      (q
         (String.concat "\n"
            [
              "(* lint^ allow D2 — feature-gated debug knob, not on a sim path *)";
              "let debug = Sys.getenv_opt \"R2C2_DEBUG\"";
            ]))
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 r.Lint_core.suppressed

let allow_multiple_rules () =
  let r =
    lint
      (q
         (String.concat "\n"
            [
              "(* lint^ allow D3 S2 — scratch table in a test helper *)";
              "let f tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])";
            ]))
  in
  Alcotest.(check (list string)) "both suppressed" [] (rules_of r);
  Alcotest.(check int) "both counted" 2 r.Lint_core.suppressed

let allow_wrong_rule_does_not_suppress () =
  let r =
    lint (q "let t = Unix.gettimeofday () (* lint^ allow D3 — wrong rule named *)")
  in
  Alcotest.(check (list string)) "violation survives" [ "D2" ] (rules_of r);
  Alcotest.(check int) "nothing suppressed" 0 r.Lint_core.suppressed;
  match r.Lint_core.unused_allows with
  | [ sa ] ->
      (* The stale report carries the comment's exact position, not just
         a count — the reviewer can jump straight to it. *)
      Alcotest.(check string) "stale allow names its file" "fixture.ml" sa.Lint_core.sa_file;
      Alcotest.(check int) "stale allow names its line" 1 sa.Lint_core.sa_line;
      Alcotest.(check (list string)) "stale allow names its rules" [ "D3" ]
        sa.Lint_core.sa_rules
  | l -> Alcotest.failf "expected exactly one stale allow, got %d" (List.length l)

let partial_multi_rule_allow_reports_unused_rules () =
  (* A multi-rule allow where only one rule fires: the allow is not
     silently "used" — the unexercised rule names are reported at the
     comment's file:line so it can be trimmed. *)
  let r =
    lint
      (q
         ("let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] "
         ^ "(* lint^ allow D3 S2 — fold is commutative here *)"))
  in
  Alcotest.(check (list string)) "D3 suppressed" [] (rules_of r);
  Alcotest.(check int) "one suppression" 1 r.Lint_core.suppressed;
  match r.Lint_core.unused_allows with
  | [ sa ] ->
      Alcotest.(check int) "reported at the comment's line" 1 sa.Lint_core.sa_line;
      Alcotest.(check (list string)) "only the unused rule is stale" [ "S2" ]
        sa.Lint_core.sa_rules
  | l -> Alcotest.failf "expected exactly one stale allow, got %d" (List.length l)

let allow_requires_reason () =
  check_rules "reason-less allow is malformed" [ "D3"; "LINT" ]
    (q "let f tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] (* lint^ allow D3 *)");
  check_rules "unknown rule name is malformed" [ "LINT"; "S1" ]
    (String.concat "\n"
       (List.map q
          [ "(* lint^ allow D9 — no such rule *)"; "let f (x : int) : float = Obj.magic x" ]))

(* -- U1: raw float literals into unit-carrying labels ---------------------- *)

let u1_raw_literals_flagged () =
  check_rules "raw gbps literal" [ "U1" ] "let s = make ctx ~link_gbps:10.0";
  check_rules "raw headroom literal" [ "U1" ] "let r = allocate ~headroom:0.05 ~capacities flows";
  check_rules "Some literal under a unit label" [ "U1" ]
    "let () = set_demand st f ~gbps:(Some 2.0)";
  check_rules ~in_lib:false "applies in bench/bin/examples too" [ "U1" ]
    "let x = run ~loss:0.02 ()"

let u1_wrapped_ok () =
  check_rules "constructor-wrapped ok" [] "let s = make ctx ~link_gbps:(Util.Units.gbps 10.0)";
  check_rules "Some-wrapped ok" [] "let () = set_demand st f ~gbps:(Some (Util.Units.gbps 2.0))";
  check_rules "non-unit labels untouched" []
    "let n = pareto_size rng ~shape:1.05 ~mean:100_000.0";
  check_rules "unlabeled literals untouched" [] "let x = f 10.0 0.05"

(* -- U2: arithmetic directly on to_float ----------------------------------- *)

let u2_arith_on_to_float_flagged () =
  check_rules "operator on a to_float result" [ "U2" ] "let x r = Util.Units.to_float r *. 2.0";
  check_rules "both operands flagged" [ "U2"; "U2" ] "let x a b = U.to_float a /. U.to_float b";
  check_rules "bare to_float flagged" [ "U2" ] "let x r = 1.0 -. to_float r"

let u2_let_bound_ok () =
  check_rules "let-bound unwrap is the sanctioned idiom" []
    "let x r = let v = Util.Units.to_float r in v *. 2.0";
  check_rules "to_float as a plain argument ok" []
    "let pr r = Printf.printf \"%f\" (Util.Units.to_float r)"

let u2_exempt_in_units_ml () =
  (* The combinator definitions are the one place raw unwrap-and-compute
     is the point. *)
  let r =
    Lint_core.lint_source ~file:"units.ml" ~in_lib:true "let x r = Util.Units.to_float r *. 2.0"
  in
  Alcotest.(check (list string)) "units.ml itself is exempt" [] (rules_of r)

(* -- U3: wire budget and encoder/decoder symmetry -------------------------- *)

let u3_symmetric_codec_ok () =
  check_rules "balanced encoder/decoder pair" []
    (String.concat "\n"
       [
         "let sz = 8";
         "let encode_x v =";
         "  let b = Bytes.make sz '\\000' in";
         "  put8 b 0 1; put16 b 1 v; put32 b 3 v; put8 b 7 0; b";
         "let decode_x b = (get8 b 0, get16 b 1, get32 b 3, get8 b 7)";
       ])

let u3_one_byte_drift_flagged () =
  (* The acceptance fixture: shrink the declared size by one byte and the
     final fixed field overruns the budget. *)
  check_rules "one-byte size drift overruns" [ "U3" ]
    (String.concat "\n"
       [
         "let sz = 7";
         "let encode_x v =";
         "  let b = Bytes.make sz '\\000' in";
         "  put8 b 0 1; put16 b 1 v; put32 b 3 v; put8 b 7 0; b";
         "let decode_x b = (get8 b 0, get16 b 1, get32 b 3, get8 b 7)";
       ])

let u3_slack_flagged () =
  check_rules "trailing slack is a budget mismatch" [ "U3" ]
    (String.concat "\n"
       [
         "let sz = 9";
         "let encode_x v =";
         "  let b = Bytes.make sz '\\000' in";
         "  put8 b 0 1; put16 b 1 v; put32 b 3 v; put8 b 7 0; b";
         "let decode_x b = (get8 b 0, get16 b 1, get32 b 3, get8 b 7)";
       ])

let u3_overlap_flagged () =
  check_rules "overlapping fixed writes" [ "U3" ]
    (String.concat "\n"
       [
         "let sz = 4";
         "let encode_x v =";
         "  let b = Bytes.make sz '\\000' in";
         "  put16 b 1 v; put16 b 2 v; b";
         "let decode_x b = (get16 b 1, get16 b 2)";
       ])

let u3_asymmetry_flagged () =
  (* Writer emits 4 bytes at offset 2, reader takes back only 2: both
     sides of the mismatch are reported. *)
  check_rules "width mismatch reported on both sides" [ "U3"; "U3" ]
    (String.concat "\n"
       [
         "let sz = 6";
         "let encode_y v = let b = Bytes.make sz '\\000' in put16 b 0 v; put32 b 2 v; b";
         "let decode_y b = (get16 b 0, get16 b 2)";
       ])

let u3_dynamic_offsets_tolerated () =
  (* Computed offsets (the packed route field) fall outside the symbolic
     walk: no false budget/symmetry findings, static fields still checked. *)
  check_rules "loop-written fields are skipped, not flagged" []
    (String.concat "\n"
       [
         "let sz = 8";
         "let encode_z v =";
         "  let b = Bytes.make sz '\\000' in";
         "  put8 b 0 1;";
         "  Array.iteri (fun i s -> put8 b (1 + i) s) v;";
         "  b";
         "let decode_z b = get8 b 0";
       ])

(* -- A1: arena bypass on the packet path (lib/sim only) -------------------- *)

let lint_sim src = Lint_core.lint_source ~file:"lib/sim/fixture.ml" ~in_lib:true src
let check_sim_rules name expected src =
  Alcotest.(check (list string)) name expected (rules_of (lint_sim src))

let a1_packet_record_flagged () =
  check_sim_rules "kind+route record literal" [ "A1" ]
    "let p = { kind = Data; route = r; hop = 0 }";
  check_sim_rules "route+hop record literal" [ "A1" ]
    "let p = { route = r; hop = 1; bytes = 1500 }";
  (* The pre-arena Net.packet constructor: reverting the arena conversion
     reintroduces exactly this shape. *)
  check_sim_rules "pre-arena Net.packet fails A1" [ "A1" ]
    (String.concat "\n"
       [
         "let send t ~flow ~seq ~last ~bytes ~route =";
         "  let p = { kind = Data { flow; seq; last }; bytes; route; hop = 0 } in";
         "  enqueue_link t p";
       ])

let a1_route_copy_flagged () =
  check_sim_rules "Array.copy of a route field" [ "A1" ]
    "let clone t p = Array.copy p.route";
  check_sim_rules "Array.copy of a route binding" [ "A1" ]
    "let dup route = Array.copy route";
  check_sim_rules "route-prefixed names count" [ "A1" ]
    "let r2 fwd_route = Array.copy fwd_route"

let a1_scoped_to_sim () =
  (* Outside a sim/ directory component the rule is off: the control plane
     and tests may build packet-shaped values freely. *)
  check_rules "record literal fine outside sim" []
    "let p = { kind = Data; route = r; hop = 0 }";
  check_rules "route copy fine outside sim" [] "let dup route = Array.copy route"

let a1_benign_shapes_ok () =
  check_sim_rules "record without route untouched" []
    "let s = { kind = Data; bytes = 1500 }";
  check_sim_rules "route record without kind/hop untouched" []
    "let e = { route = r; cost = 3 }";
  check_sim_rules "Array.copy of non-route untouched" []
    "let snap stats = Array.copy stats"

let a1_net_lookups_flagged () =
  let lint_net src = Lint_core.lint_source ~file:"lib/sim/net.ml" ~in_lib:true src in
  let check_net name expected src =
    Alcotest.(check (list string)) name expected (rules_of (lint_net src))
  in
  check_net "find_link in net.ml" [ "A1" ] "let hop t u v = Topology.find_link t.topo u v";
  check_net "children in net.ml" [ "A1" ]
    "let fan t b ~src ~tree v = List.iter (send t) (Broadcast.children b ~src ~tree v)";
  check_net "find_link_id and fib are the fast path" []
    (String.concat "\n"
       [
         "let hop t u v = Topology.find_link_id t.topo u v";
         "let fan b ~src ~tree = Broadcast.fib b ~src ~tree";
       ]);
  (* A per-hop loss draw: [float] boxes its result across the module
     boundary, [below] compares inside Rng and returns an immediate. *)
  check_net "boxed Rng.float draw in net.ml" [ "A1" ]
    "let lost ch = Util.Rng.float ch.crng 1.0 < ch.loss";
  check_net "Rng.below is the unboxed draw" [] "let lost ch = Util.Rng.below ch.crng ch.loss";
  (* The ban is on the packet fabric only: other sim modules resolve links
     off the per-hop path. *)
  check_sim_rules "find_link fine in other sim files" []
    "let hop t u v = Topology.find_link t.topo u v"

let a1_sim_path_sampling_flagged () =
  (* The R2C2 sender picks a route per data packet: a fresh vertex array
     each time is the allocation the path buffer removed. *)
  let lint_r2c2 src = Lint_core.lint_source ~file:"lib/sim/r2c2_sim.ml" ~in_lib:true src in
  let check_r2c2 name expected src =
    Alcotest.(check (list string)) name expected (rules_of (lint_r2c2 src))
  in
  check_r2c2 "sample_path in r2c2_sim.ml" [ "A1" ]
    "let route t st = Net.intern_route t.net (Routing.sample_path t.rctx t.rng st.proto ~src ~dst)";
  check_r2c2 "sample_into and the path buffer are the fast path" []
    (String.concat "\n"
       [
         "let route t st =";
         "  let n = Routing.sample_into t.rctx t.rng st.proto ~src ~dst in";
         "  Net.intern_prefix t.net (Routing.path_buffer t.rctx) n";
       ]);
  (* Other sim modules sample off the per-packet path (PFQ's per-flow
     path set, for one). *)
  check_sim_rules "sample_path fine in other sim files" []
    "let paths ctx rng = Routing.sample_path ctx rng Routing.Rps ~src:0 ~dst:1"

let a1_allow_suppresses () =
  let r =
    lint_sim
      (q
         (String.concat "\n"
            [
              "(* lint^ allow A1 — test fixture builds a throwaway packet *)";
              "let p = { kind = Data; route = r; hop = 0 }";
            ]))
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 (List.assoc "A1" r.Lint_core.suppressed_by_rule)

(* -- stale allows and the summary ------------------------------------------ *)

let stale_allow_fails_gate () =
  let r = lint (q "(* lint^ allow D3 — left behind after a refactor *)\nlet x = 1") in
  Alcotest.(check (list string)) "no violations" [] (rules_of r);
  Alcotest.(check int) "stale allow reported" 1 (List.length r.Lint_core.unused_allows);
  let null = open_out Filename.null in
  let code = Lint_core.report_and_exit_code null r in
  close_out null;
  Alcotest.(check int) "stale allow fails the gate" 1 code

let per_rule_suppression_counts () =
  let r = lint (q "let t = Unix.gettimeofday () (* lint^ allow D2 — summary fixture *)") in
  Alcotest.(check int) "D2 suppression counted" 1
    (List.assoc "D2" r.Lint_core.suppressed_by_rule);
  Alcotest.(check int) "other rules untouched" 0 (List.assoc "U1" r.Lint_core.suppressed_by_rule)

(* -- the phantom-type layer itself: dimension swaps must not compile ------- *)

let obj_dirs =
  List.map
    (fun l -> Printf.sprintf "../lib/%s/.%s.objs/byte" l l)
    [ "util"; "topology"; "routing"; "congestion" ]

let typechecks =
  (* In-process typecheck against the repo's own compiled interfaces: the
     negative fixtures prove the Units sweep rejects dimension swaps at
     compile time, which no runtime test can demonstrate. *)
  let initialized =
    lazy
      (Compmisc.init_path ();
       List.iter Load_path.add_dir obj_dirs)
  in
  fun src ->
    Lazy.force initialized;
    let env = Compmisc.initial_env () in
    match Typemod.type_structure env (Parse.implementation (Lexing.from_string src)) with
    | _ -> true
    | exception (Typetexp.Error _ | Typecore.Error _) -> false

let units_reject_dimension_swap () =
  if List.for_all Sys.file_exists obj_dirs then begin
    Alcotest.(check bool) "correctly-typed caller compiles" true
      (typechecks
         "let _ = Congestion.Waterfill.allocate_reference ~capacities:[| Util.Units.byte_rate 1.25 \
          |] [||]");
    Alcotest.(check bool) "bytes-for-rate swap rejected by the compiler" false
      (typechecks
         "let _ = Congestion.Waterfill.allocate_reference ~capacities:[| Util.Units.bytes 1.25 |] \
          [||]");
    Alcotest.(check bool) "raw float capacities rejected" false
      (typechecks "let _ = Congestion.Waterfill.allocate_reference ~capacities:[| 1.25 |] [||]");
    let flow demand =
      Printf.sprintf
        "let _ = Congestion.Waterfill.flow ~demand:(%s 0.5) ~id:0 (Routing.row ~links:[||] \
         ~fracs:[||])"
        demand
    in
    Alcotest.(check bool) "byte-rate demand compiles" true (typechecks (flow "Util.Units.byte_rate"));
    Alcotest.(check bool) "fraction-for-rate demand rejected" false
      (typechecks (flow "Util.Units.fraction"))
  end

(* -- revert guard: the exact code this PR scrubbed ------------------------ *)

(* Pre-PR lib/core/stack.ml:166 — reverting the Util.Tbl conversion in any
   swept file reintroduces exactly this shape, which must fail the gate. *)
let revert_guard_stack () =
  check_rules "old flow_array fails D3" [ "D3" ]
    (String.concat "\n"
       [
         "let flow_array t =";
         "  let fl = Hashtbl.fold (fun _ f acc -> f :: acc) t.flows [] in";
         "  Array.of_list (List.sort (fun a b -> compare a.id b.id) fl)";
       ])

(* Pre-PR lib/sim/metrics.ml:30 — fold in hash order, then a polymorphic
   sort over (int * int) pairs. *)
let revert_guard_metrics () =
  check_rules "old goodput_series fails D3+S2" [ "D3"; "S2" ]
    (String.concat "\n"
       [
         "let goodput_series t =";
         "  let xs = Hashtbl.fold (fun i b acc -> (i * t.bucket_ns, b) :: acc) t.buckets [] in";
         "  Array.of_list (List.sort compare xs)";
       ])

(* Pre-PR lib/congestion/waterfill.ml:128. *)
let revert_guard_waterfill () =
  check_rules "old by_priority fails D3+S2" [ "D3"; "S2" ]
    "let prios t = List.sort_uniq compare (Hashtbl.fold (fun p _ acc -> p :: acc) t [])"

(* Pre-PR lib/sim/r2c2_sim.ml:255 — control-plane epoch iterating the
   active-flow table in hash order. *)
let revert_guard_sim () =
  check_rules "old recompute iteration fails D3" [ "D3"; "D3" ]
    (String.concat "\n"
       [
         "let senders t tbl =";
         "  Hashtbl.iter (fun _ st -> Hashtbl.replace tbl st.src st) t.active;";
         "  Array.of_list (Hashtbl.fold (fun _ st acc -> st :: acc) tbl [])";
       ])

(* -- the driver: JSON report and exit codes --------------------------------- *)

(* A scratch tree under the test's own cwd (inside _build) with one dirty
   file: enough to drive the full driver end to end. *)
let with_fixture_tree f =
  let dir = "lint_fixture_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "dirty.ml") in
  output_string oc "let x = Random.int 10\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove (Filename.concat dir "dirty.ml");
      Sys.rmdir dir)
    (fun () -> f dir)

let driver_json_and_exit_code () =
  with_fixture_tree (fun dir ->
      let config =
        { Lint_driver.roots = [ dir ]; relaxed = []; registry_file = None; cmt_root = None }
      in
      let report = Lint_driver.run config in
      let summary_file = Filename.temp_file "lint_summary" ".txt" in
      let oc = open_out summary_file in
      let code = Lint_driver.report_and_exit_code oc report in
      close_out oc;
      let summary = In_channel.with_open_text summary_file In_channel.input_all in
      Sys.remove summary_file;
      Alcotest.(check int) "violations exit 1" 1 code;
      let json = Lint_driver.to_json report in
      Alcotest.(check bool) "json names the rule" true (contains json "\"rule\": \"D1\"");
      Alcotest.(check bool) "json names the file" true (contains json "dirty.ml");
      Alcotest.(check bool) "json carries per-rule counts" true
        (contains json "\"violations_by_rule\"");
      Alcotest.(check bool) "json carries the ownership key" true
        (contains json "\"ownership\"");
      Alcotest.(check bool) "summary carries per-pass timings" true
        (contains summary "timings (ms): ");
      Alcotest.(check bool) "parse pass is timed" true (contains summary "parse "))

let driver_relaxed_override () =
  (* --relaxed forces a root to the Relaxed tier regardless of basename:
     the D1 fixture still flags, but S/U violations would not. *)
  with_fixture_tree (fun dir ->
      let config =
        {
          Lint_driver.roots = [ dir ];
          relaxed = [ dir ];
          registry_file = None;
          cmt_root = None;
        }
      in
      let report = Lint_driver.run config in
      Alcotest.(check (list string)) "D1 survives the Relaxed override" [ "D1" ]
        (List.map (fun v -> v.Lint_core.rule) report.Lint_driver.core.Lint_core.violations))

let registry_syntax_error_is_internal () =
  (* Exit-code contract: a broken registry is an internal error (exit 2),
     never a clean run. *)
  Alcotest.check_raises "unbalanced paren raises Internal"
    (Lint_core.Internal "reg.sexp:1: unterminated '('")
    (fun () -> ignore (Lint_typed.load_registry_src ~file:"reg.sexp" "((item Foo.x)"));
  match Lint_typed.load_registry_src ~file:"reg.sexp" "((item Foo.x) (why \"y\"))" with
  | _ -> Alcotest.fail "entry without a class must not load"
  | exception Lint_core.Internal msg ->
      Alcotest.(check bool) "missing field is diagnosed" true (contains msg "class")

let driver_mli_stale_allow () =
  (* Interface files carry allow comments too (doc text can trip D rules);
     a stale one must be reported with its file and line, same as in .ml. *)
  let dir = "lint_fixture_mli" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let mli = Filename.concat dir "iface.mli" in
  let oc = open_out mli in
  output_string oc
    (q "val f : int -> int\n(* lint^ allow D1 - nothing on this line needs it *)\nval g : int\n");
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove mli;
      Sys.rmdir dir)
    (fun () ->
      let config =
        { Lint_driver.roots = [ dir ]; relaxed = []; registry_file = None; cmt_root = None }
      in
      let report = Lint_driver.run config in
      match report.Lint_driver.core.Lint_core.unused_allows with
      | [ sa ] ->
          Alcotest.(check string) "file" mli sa.Lint_core.sa_file;
          Alcotest.(check int) "line" 2 sa.sa_line;
          Alcotest.(check (list string)) "rules" [ "D1" ] sa.sa_rules
      | other ->
          Alcotest.fail
            (Printf.sprintf "expected exactly one stale allow, got %d" (List.length other)))

let init_spans_windows () =
  let spans =
    Lint_core.init_spans
      (String.concat "\n"
         [
           "let a = 1";
           "(* lint: init *)";
           "let b = 2";
           "(* lint: init end *)";
           "let c = 3";
           "(* lint: init *)";
           "let d = 4";
         ])
  in
  Alcotest.(check (list (pair int int)))
    "closed span, then an unclosed one running to end of file"
    [ (2, 4); (6, max_int) ]
    spans

let cmt_preflight_diagnoses () =
  (* The --cmt-root pre-flight: each failure mode gets a one-line cause. *)
  (match Lint_typed.cmt_root_problem ~cmt_root:"no_such_dir_zz" with
  | Some why -> Alcotest.(check bool) "missing dir named" true (contains why "does not exist")
  | None -> Alcotest.fail "missing dir must be diagnosed");
  let dir = "lint_fixture_cmt" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ml = Filename.concat dir "foo.ml" and cmt = Filename.concat dir "lint__Foo.cmt" in
  let touch f = close_out (open_out f) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ml; cmt ];
      Sys.rmdir dir)
    (fun () ->
      (match Lint_typed.cmt_root_problem ~cmt_root:dir with
      | Some why -> Alcotest.(check bool) "empty dir named" true (contains why ".cmt")
      | None -> Alcotest.fail "cmt-less dir must be diagnosed");
      touch cmt;
      touch ml;
      (* mangled `lint__Foo.cmt` pairs with `foo.ml`; date the .cmt a day
         before the .ml so the tree reads as stale *)
      Unix.utimes cmt 1000.0 1000.0;
      (match Lint_typed.cmt_root_problem ~cmt_root:dir with
      | Some why -> Alcotest.(check bool) "staleness named" true (contains why "stale")
      | None -> Alcotest.fail "stale .cmt must be diagnosed");
      let now = Unix.gettimeofday () in
      Unix.utimes cmt (now +. 60.0) (now +. 60.0);
      Alcotest.(check bool) "fresh tree passes" true
        (Lint_typed.cmt_root_problem ~cmt_root:dir = None))

(* The lint rule walks build directories while dune still renames and
   deletes artifacts in them: an entry listed by [Sys.readdir] may be gone
   when the walk checks it. A dangling symlink is such an entry. *)
let walk_skips_vanished_entries () =
  let dir = "lint_fixture_walk" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let kept = Filename.concat dir "kept.ml" and gone = Filename.concat dir "gone.ml" in
  close_out (open_out kept);
  Unix.symlink "no_such_target.ml" gone;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ kept; gone ];
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check (list string)) "the vanished entry is skipped" [ kept ]
        (Lint_core.ml_files_under dir))

(* -- whole-tree gate ------------------------------------------------------ *)

let repo_tree_is_clean () =
  (* The real gate is `dune build @lint`; when the test sandbox carries the
     sources (dune `deps`), re-check them here so `dune runtest` alone also
     proves the tree clean — all three passes, same config as the @lint
     rule (the typed pass only when the .cmt files are reachable). *)
  let roots =
    List.filter Sys.file_exists [ "../lib"; "../bench"; "../bin"; "../examples"; "../test" ]
  in
  if roots = [] then ()
  else begin
    let registry = "../tools/lint/ownership.sexp" in
    let typed_ready =
      Sys.file_exists registry && Sys.file_exists "../lib/congestion/.congestion.objs/byte"
    in
    let config =
      {
        Lint_driver.roots;
        relaxed = [];
        registry_file = (if typed_ready then Some registry else None);
        cmt_root = (if typed_ready then Some "../lib" else None);
      }
    in
    let report = Lint_driver.run config in
    let r = report.Lint_driver.core in
    List.iter
      (fun (v : Lint_core.violation) ->
        Printf.printf "%s:%d: [%s] %s\n" v.file v.line v.rule v.message)
      r.Lint_core.violations;
    List.iter (Lint_core.pp_stale stdout) r.Lint_core.unused_allows;
    Alcotest.(check int) "no violations in lib/ bench/ bin/ examples/ test/" 0
      (List.length r.Lint_core.violations);
    Alcotest.(check int) "no stale allows anywhere" 0 (List.length r.Lint_core.unused_allows);
    if typed_ready then begin
      Alcotest.(check bool) "ownership map is non-empty" true
        (report.Lint_driver.ownership <> []);
      Alcotest.(check bool) "every mutable item is registered" true
        (List.for_all (fun (_, cls) -> cls <> None) report.Lint_driver.ownership)
    end
  end

let suites =
  [
    ( "lint",
      [
        tc "D1: Random banned everywhere" d1_random_banned;
        tc "D1: Util.Rng sanctioned" d1_util_rng_ok;
        tc "D2: wall clock banned in lib" d2_wall_clock_banned_in_lib;
        tc "D2: bench may time itself" d2_allowed_in_bench;
        tc "D3: raw Hashtbl iteration banned in lib" d3_raw_iteration_banned_in_lib;
        tc "D3: Util.Tbl / lookups / bench ok" d3_sorted_and_bench_ok;
        tc "D3: the hint names Util.Itbl for int keys" d3_hint_names_itbl;
        tc "tiers: Relaxed runs D-rules only" relaxed_tier_d_rules_only;
        tc "tiers: root basename mapping" tier_of_root_mapping;
        tc "S1: Obj.magic and catch-all try" s1_flagged;
        tc "S1: specific handlers ok" s1_specific_handlers_ok;
        tc "S2: bare compare flagged" s2_bare_compare_flagged;
        tc "S2: explicit comparators ok" s2_explicit_comparators_ok;
        tc "allow: same line" allow_same_line;
        tc "allow: previous line" allow_previous_line;
        tc "allow: several rules at once" allow_multiple_rules;
        tc "allow: wrong rule does not suppress" allow_wrong_rule_does_not_suppress;
        tc "allow: partial multi-rule use reported" partial_multi_rule_allow_reports_unused_rules;
        tc "allow: justification mandatory" allow_requires_reason;
        tc "U1: raw literals into unit labels" u1_raw_literals_flagged;
        tc "U1: wrapped / non-unit labels ok" u1_wrapped_ok;
        tc "U2: arithmetic on to_float" u2_arith_on_to_float_flagged;
        tc "U2: let-bound unwrap ok" u2_let_bound_ok;
        tc "U2: units.ml exempt" u2_exempt_in_units_ml;
        tc "U3: symmetric codec ok" u3_symmetric_codec_ok;
        tc "U3: one-byte size drift" u3_one_byte_drift_flagged;
        tc "U3: trailing slack" u3_slack_flagged;
        tc "U3: overlapping writes" u3_overlap_flagged;
        tc "U3: read/write asymmetry" u3_asymmetry_flagged;
        tc "U3: dynamic offsets tolerated" u3_dynamic_offsets_tolerated;
        tc "A1: packet-shaped record literal" a1_packet_record_flagged;
        tc "A1: route Array.copy" a1_route_copy_flagged;
        tc "A1: scoped to lib/sim" a1_scoped_to_sim;
        tc "A1: benign shapes ok" a1_benign_shapes_ok;
        tc "A1: allocating lookups in net.ml" a1_net_lookups_flagged;
        tc "A1: per-packet path arrays in r2c2_sim.ml" a1_sim_path_sampling_flagged;
        tc "A1: allow suppresses" a1_allow_suppresses;
        tc "stale allow fails the gate" stale_allow_fails_gate;
        tc "per-rule suppression counts" per_rule_suppression_counts;
        tc "phantom types reject dimension swaps" units_reject_dimension_swap;
        tc "revert guard: stack.ml conversion" revert_guard_stack;
        tc "revert guard: metrics.ml conversion" revert_guard_metrics;
        tc "revert guard: waterfill.ml conversion" revert_guard_waterfill;
        tc "revert guard: r2c2_sim.ml conversion" revert_guard_sim;
        tc "driver: json report and exit code" driver_json_and_exit_code;
        tc "driver: --relaxed tier override" driver_relaxed_override;
        tc "driver: registry errors are internal" registry_syntax_error_is_internal;
        tc "driver: .mli stale allow reported" driver_mli_stale_allow;
        tc "init spans: windows parsed" init_spans_windows;
        tc "driver: cmt-root pre-flight diagnoses" cmt_preflight_diagnoses;
        tc "walk skips entries that vanished" walk_skips_vanished_entries;
        tc "repo tree is lint-clean" repo_tree_is_clean;
      ] );
  ]
