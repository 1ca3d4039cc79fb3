(* Tests for the typed-tree M-rule pass (Lint_typed).

   Fixtures are typechecked in-process: `Compmisc.initial_env` gives an
   environment with the stdlib on the load path, `Typemod.type_structure`
   produces the same `Typedtree.structure` a `.cmt` file would carry, and
   the result is wrapped in a `unit_info` exactly as `load_unit` would.
   That exercises everything except `Cmt_format.read_cmt` itself, which
   the driver-level test in test_lint.ml covers against the real build
   tree. *)

let tc name f = Alcotest.test_case name `Quick f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fixture_env =
  lazy
    (Compmisc.init_path ();
     Env.set_unit_name "Lint_typed_fixture";
     Compmisc.initial_env ())

let type_unit ~name src =
  let file = String.lowercase_ascii name ^ ".ml" in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let past = Parse.implementation lexbuf in
  let tstr, _sig, _names, _shape, _env =
    Typemod.type_structure (Lazy.force fixture_env) past
  in
  { Lint_typed.u_name = name; u_file = file; u_str = tstr }

(* A fixture naming lib/'s own [Util.Itbl] is typed against the compiled
   util library, as lib/ code is; forcing [fixture_env] resets the load
   path, so the directory goes in after it. *)
let type_util_unit ~name src =
  ignore (Lazy.force fixture_env);
  Load_path.add_dir "../lib/util/.util.objs/byte";
  type_unit ~name src

let registry src = Lint_typed.load_registry_src ~file:"ownership.sexp" src
let empty_registry = { Lint_typed.reg_file = "ownership.sexp"; entries = [] }

let analyze ?(registry = empty_registry) ~name src =
  Lint_typed.analyze ~registry [ type_unit ~name src ]

let by_rule rule (res : Lint_typed.result) =
  List.filter (fun v -> v.Lint_core.rule = rule) res.typed_violations

let check_count name n vs = Alcotest.(check int) name n (List.length vs)

(* -- registry parsing -------------------------------------------------------- *)

let registry_parses () =
  let reg =
    registry
      (String.concat "\n"
         [
           "; ownership registry fixture";
           "((item Fix.hits) (class domain_local)";
           " (why \"per-domain counter with a \\\"quoted\\\" word\\nand two lines\"))";
           "";
           "((class shard_owned) (item Fix.tbl) (why \"field order is free\"))";
         ])
  in
  Alcotest.(check int) "two entries" 2 (List.length reg.entries);
  let e1 = List.nth reg.entries 0 and e2 = List.nth reg.entries 1 in
  Alcotest.(check string) "item" "Fix.hits" e1.r_item;
  Alcotest.(check string) "class" "domain_local" e1.r_class;
  Alcotest.(check bool) "escapes decoded" true (contains e1.r_why "\"quoted\" word\nand");
  Alcotest.(check int) "entry line tracks the open paren" 2 e1.r_line;
  Alcotest.(check string) "field order is free" "Fix.tbl" e2.r_item;
  Alcotest.(check int) "second entry line" 5 e2.r_line

(* -- M3: the inventory and its coverage -------------------------------------- *)

let m3_flags_unregistered () =
  let res = analyze ~name:"Fix" "let hits : int ref = ref 0" in
  let m3 = by_rule "M3" res in
  check_count "one M3" 1 m3;
  let v = List.hd m3 in
  Alcotest.(check bool) "names the item" true (contains v.message "Fix.hits");
  Alcotest.(check string) "located in the fixture" "fix.ml" v.file;
  check_count "inventory has it, unregistered" 1
    (List.filter (fun (i, c) -> i.Lint_typed.i_name = "Fix.hits" && c = None) res.inventory)

let m3_sees_through_aliases () =
  (* The mutability is three hops away from the binding: a record with a
     mutable field, hidden behind a local alias. This is exactly what the
     parse-level pass cannot see and the typed fixpoint must. *)
  let res =
    analyze ~name:"Fix"
      (String.concat "\n"
         [
           "type counter = { mutable count : int }";
           "type t = counter";
           "let c : t = { count = 0 }";
         ])
  in
  check_count "alias-hidden mutable flags" 1
    (List.filter (fun v -> contains v.Lint_core.message "Fix.c") (by_rule "M3" res))

let m3_scopes_submodules () =
  (* A submodule's own type referenced bare inside it, and the same type
     referenced as `Sub.t` from the unit toplevel: both spellings must
     resolve to the one declaration in the fixpoint set. *)
  let res =
    analyze ~name:"Fix"
      (String.concat "\n"
         [
           "module Sub = struct";
           "  type t = { mutable v : int }";
           "  let own : t = { v = 0 }";
           "end";
           "let outer : Sub.t = { Sub.v = 1 }";
         ])
  in
  let m3 = by_rule "M3" res in
  check_count "both spellings flag" 2 m3;
  Alcotest.(check bool) "submodule item is fully qualified" true
    (List.exists (fun v -> contains v.Lint_core.message "Fix.Sub.own") m3);
  Alcotest.(check bool) "toplevel item flags too" true
    (List.exists (fun v -> contains v.Lint_core.message "Fix.outer") m3)

let m3_respects_registration () =
  let res =
    analyze
      ~registry:
        (registry "((item Fix.hits) (class domain_local) (why \"per-domain stat\"))")
      ~name:"Fix" "let hits : int ref = ref 0"
  in
  check_count "no violations" 0 res.typed_violations;
  check_count "inventory carries the class" 1
    (List.filter
       (fun (i, c) -> i.Lint_typed.i_name = "Fix.hits" && c = Some "domain_local")
       res.inventory)

let m3_inventories_itbl () =
  (* [Hashtbl.Make]'s [t] is abstract: no fixpoint can see that it is
     mutable, so the builtin list has to name it. *)
  let res =
    Lint_typed.analyze ~registry:empty_registry
      [ type_util_unit ~name:"Fix" "let live : int Util.Itbl.t = Util.Itbl.create 8" ]
  in
  let m3 = by_rule "M3" res in
  check_count "a toplevel Util.Itbl.t flags" 1 m3;
  Alcotest.(check bool) "names the item" true (contains (List.hd m3).message "Fix.live")

let functions_and_factories_exempt () =
  let res =
    analyze ~name:"Fix"
      (String.concat "\n"
         [
           "let pure = 42";
           "let mk () = ref 0  (* a factory mints fresh state; nothing is shared *)";
           "let double (r : int ref) = 2 * !r";
         ])
  in
  check_count "no M3" 0 (by_rule "M3" res);
  check_count "empty inventory" 0 res.inventory

let captured_spine_flags () =
  (* `tick` has an arrow type, but the ref on its definition spine is
     permanent state wearing a closure. *)
  let res = analyze ~name:"Fix" "let tick = let n = ref 0 in fun () -> incr n; !n" in
  let m3 = by_rule "M3" res in
  check_count "captured spine flags" 1 m3;
  Alcotest.(check bool) "names the captured binding" true
    (contains (List.hd m3).message "Fix.tick");
  check_count "inventory reason is the capture" 1
    (List.filter
       (fun (i, _) -> contains i.Lint_typed.i_why_mutable "'n'")
       res.inventory)

(* -- M1: registry hygiene ----------------------------------------------------- *)

let m1_hygiene () =
  let res =
    analyze
      ~registry:
        (registry
           (String.concat "\n"
              [
                "((item Fix.a) (class domain_local) (why \"fine\"))";
                "((item Fix.a) (class domain_local) (why \"duplicate\"))";
                "((item Fix.gone) (class domain_local) (why \"stale\"))";
                "((item Fix.b) (class sharded) (why \"typo class\"))";
                "((item Fix.c) (class shared_readonly) (why \"   \"))";
              ]))
      ~name:"Fix"
      (String.concat "\n"
         [
           "let a : int ref = ref 0";
           "let b : int ref = ref 0";
           "let c : int ref = ref 0";
         ])
  in
  let m1 = by_rule "M1" res in
  check_count "four hygiene violations" 4 m1;
  let has sub = List.exists (fun v -> contains v.Lint_core.message sub) m1 in
  Alcotest.(check bool) "duplicate cites the first line" true
    (has "duplicate registry entry for 'Fix.a' (first at line 1)");
  Alcotest.(check bool) "stale entry" true (has "no toplevel mutable item 'Fix.gone'");
  Alcotest.(check bool) "unknown class" true (has "unknown ownership class 'sharded'");
  Alcotest.(check bool) "empty why" true (has "empty justification");
  Alcotest.(check bool) "all land in the registry file" true
    (List.for_all (fun v -> v.Lint_core.file = "ownership.sexp") m1);
  check_count "hygiene problems are not coverage problems" 0 (by_rule "M3" res)

(* -- M2: escaping closures over shard_owned state ----------------------------- *)

let shard_tbl_registry =
  "((item Fix.tbl) (class shard_owned) (why \"per-shard flow table\"))"

let m2_domain_spawn_flags () =
  let res =
    analyze
      ~registry:(registry shard_tbl_registry)
      ~name:"Fix"
      (String.concat "\n"
         [
           "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let run () = ignore (Domain.spawn (fun () -> Hashtbl.clear tbl))";
         ])
  in
  let m2 = by_rule "M2" res in
  check_count "spawned closure over shard state flags" 1 m2;
  let v = List.hd m2 in
  Alcotest.(check bool) "names the item" true (contains v.message "Fix.tbl");
  Alcotest.(check bool) "names the callee" true (contains v.message "Domain.spawn");
  check_count "registered, so no M3" 0 (by_rule "M3" res)

let m2_stdlib_iterators_exempt () =
  let res =
    analyze
      ~registry:(registry shard_tbl_registry)
      ~name:"Fix"
      (String.concat "\n"
         [
           "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let bump () = List.iter (fun k -> Hashtbl.replace tbl k k) [ 1; 2; 3 ]";
         ])
  in
  check_count "immediate stdlib iterators are exempt" 0 (by_rule "M2" res)

let m2_itbl_iterators_exempt () =
  let res =
    Lint_typed.analyze
      ~registry:(registry shard_tbl_registry)
      [
        type_util_unit ~name:"Fix"
          (String.concat "\n"
             [
               "let tbl : int Util.Itbl.t = Util.Itbl.create 8";
               "let copy src = Util.Itbl.iter_sorted (fun k v -> Util.Itbl.replace tbl k v) src";
               "let run () = ignore (Domain.spawn (fun () -> Util.Itbl.reset tbl))";
             ]);
      ]
  in
  let m2 = by_rule "M2" res in
  check_count "only the spawned closure flags" 1 m2;
  Alcotest.(check int) "on the spawn line" 3 (List.hd m2).line

let m2_own_submodules_exempt () =
  let res =
    analyze
      ~registry:(registry shard_tbl_registry)
      ~name:"Fix"
      (String.concat "\n"
         [
           "module Sub = struct let run f = f () end";
           "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let go () = Sub.run (fun () -> Hashtbl.clear tbl)";
         ])
  in
  check_count "same-unit submodules are inside the boundary" 0 (by_rule "M2" res)

let m2_ignores_noncapturing_closures () =
  let res =
    analyze
      ~registry:(registry shard_tbl_registry)
      ~name:"Fix"
      (String.concat "\n"
         [
           "let tbl : (int, int) Hashtbl.t = Hashtbl.create 8";
           "let detach () = ignore (Domain.spawn (fun () -> 41 + 1))";
           "let size () = Hashtbl.length tbl";
         ])
  in
  check_count "closure without shard state is fine" 0 (by_rule "M2" res)

let suites =
  [
    ( "lint-typed",
      [
        tc "registry: parses comments, strings, field order" registry_parses;
        tc "M3: unregistered mutable flags" m3_flags_unregistered;
        tc "M3: fixpoint sees through aliases" m3_sees_through_aliases;
        tc "M3: submodule scoping resolves both spellings" m3_scopes_submodules;
        tc "M3: registered items are quiet" m3_respects_registration;
        tc "M3: a toplevel Util.Itbl.t is inventoried" m3_inventories_itbl;
        tc "M3: functions and factories are exempt" functions_and_factories_exempt;
        tc "M3: refs captured on a definition spine flag" captured_spine_flags;
        tc "M1: duplicate / stale / class / why hygiene" m1_hygiene;
        tc "M2: Domain.spawn over shard state flags" m2_domain_spawn_flags;
        tc "M2: stdlib iterators are exempt" m2_stdlib_iterators_exempt;
        tc "M2: Util.Itbl iterators are exempt" m2_itbl_iterators_exempt;
        tc "M2: own submodules are exempt" m2_own_submodules_exempt;
        tc "M2: non-capturing closures are quiet" m2_ignores_noncapturing_closures;
      ] );
  ]
