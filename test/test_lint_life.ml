(* Tests for the L-rule arena-lifetime walker (Lint_life).

   Two layers:

   - Fixtures: the bug classes the rules exist for — use-after-free,
     double release, conditional leak, wrong releaser, loop-body
     release — must flag, and the sanctioned intern/send/release idiom
     plus every ownership-transfer shape must stay quiet.

   - A qcheck differential: random mini-programs over alloc / release /
     use / if are rendered to OCaml source and fed to the walker, while
     a reference interpreter enumerates every path through the same
     program and computes the ground-truth verdict per handle
     (exists-path semantics: leak if some path ends with the handle
     unreleased, L2 if some path releases twice or uses after a
     release). The walker's branch-join lattice must agree with literal
     path enumeration on every generated program. *)

let tc name f = Alcotest.test_case name `Quick f

let scan src = Lint_life.scan_src ~file:"lib/sim/fixture.ml" src

let rules_of vs =
  List.sort String.compare (List.map (fun v -> v.Lint_core.rule) vs)

let check_rules name expected src =
  Alcotest.(check (list string)) name (List.sort String.compare expected) (rules_of (scan src))

(* -- fixtures: must flag ---------------------------------------------------- *)

let use_after_free_flags () =
  check_rules "use after release" [ "L2" ]
    (String.concat "\n"
       [
         "let f t a =";
         "  let r = intern_route t a in";
         "  release_route t r;";
         "  send_data t r";
       ]);
  check_rules "read through a freed packet" [ "L2" ]
    (String.concat "\n"
       [
         "let g t =";
         "  let h = alloc_pkt t in";
         "  free t h;";
         "  get t h 1";
       ])

let double_release_flags () =
  check_rules "released twice" [ "L2" ]
    (String.concat "\n"
       [
         "let f t a =";
         "  let r = intern_route t a in";
         "  release_route t r;";
         "  release_route t r";
       ]);
  check_rules "second release on one path only" [ "L2" ]
    (String.concat "\n"
       [
         "let f t a c =";
         "  let r = intern_route t a in";
         "  (if c then release_route t r);";
         "  release_route t r";
       ])

let leak_flags () =
  check_rules "never released" [ "L1" ]
    "let f t a = let r = intern_route t a in send_data t r";
  check_rules "released on only some paths" [ "L1" ]
    (String.concat "\n"
       [
         "let f t a c =";
         "  let r = intern_route t a in";
         "  if c then release_route t r else ()";
       ]);
  check_rules "minted and discarded in statement position" [ "L1" ]
    "let f t a = intern_route t a; ()";
  (* The data plane's prefix interning mints a route like intern_route. *)
  check_rules "prefix route never released" [ "L1" ]
    "let f t buf n = let r = intern_prefix t buf n in send_data t r";
  check_rules "pool prefix slice released on only some paths" [ "L1" ]
    (String.concat "\n"
       [
         "let f p buf n c =";
         "  let s = Arena.Ints.of_prefix p buf n in";
         "  if c then Arena.Ints.release p s else ()";
       ]);
  check_rules "prefix route used after release" [ "L2" ]
    (String.concat "\n"
       [
         "let f t buf n =";
         "  let r = intern_prefix t buf n in";
         "  release_route t r;";
         "  send_data t r";
       ])

let wrong_releaser_flags () =
  (* A route slice handed to the packet pool's free recycles the wrong
     arena; both the mismatch and kind symmetry are checked. *)
  check_rules "route to the packet releaser" [ "L2" ]
    "let f t a = let r = intern_route t a in free t r";
  check_rules "packet to the route releaser" [ "L2" ]
    "let f t = let h = alloc_pkt t in release_route t h"

let loop_release_flags () =
  (* Two genuine defects in one shape: a second iteration double-releases
     (L2) and a zero-iteration loop leaks (L1). *)
  check_rules "release of an outer handle inside a loop body" [ "L1"; "L2" ]
    (String.concat "\n"
       [
         "let f t a n =";
         "  let r = intern_route t a in";
         "  for i = 0 to n do release_route t r done";
       ])

(* -- fixtures: must stay quiet ---------------------------------------------- *)

let sanctioned_idiom_ok () =
  (* The dominant shape in lib/sim/r2c2_sim.ml. *)
  check_rules "intern / send / release" []
    (String.concat "\n"
       [
         "let f t net path flow seq =";
         "  let route = intern_route net path in";
         "  send_data net ~flow ~seq ~route;";
         "  release_route net route";
       ]);
  check_rules "sample into the buffer / intern the prefix / send / release" []
    (String.concat "\n"
       [
         "let f t st =";
         "  let n = Routing.sample_into t.rctx t.rng st.proto ~src:st.src ~dst:st.dst in";
         "  let route = Net.intern_prefix t.net (Routing.path_buffer t.rctx) n in";
         "  Net.send_data t.net ~flow:st.idx ~route;";
         "  Net.release_route t.net route";
       ]);
  check_rules "release on every branch" []
    (String.concat "\n"
       [
         "let f t a c =";
         "  let r = intern_route t a in";
         "  if c then begin send_data t r; release_route t r end";
         "  else release_route t r";
       ])

let ownership_transfer_ok () =
  check_rules "returned handle transfers ownership" []
    "let mint t a = let r = intern_route t a in r";
  check_rules "handle stored in a record transfers ownership" []
    "let f t a = let r = intern_route t a in { path = r; hops = 0 }";
  check_rules "handle passed to an unknown callee transfers ownership" []
    "let f t a = let r = intern_route t a in register t r"

let diverging_paths_exempt () =
  check_rules "raising branch owes no release" []
    (String.concat "\n"
       [
         "let f t a c =";
         "  let r = intern_route t a in";
         "  if c then failwith \"bad\" else release_route t r";
       ]);
  check_rules "assert false branch owes no release" []
    (String.concat "\n"
       [
         "let f t a c =";
         "  let r = intern_route t a in";
         "  (match c with 0 -> assert false | _ -> release_route t r)";
       ])

(* -- qcheck differential ----------------------------------------------------- *)

type stmt =
  | Alloc of int
  | Release of int
  | Use of int
  | If of stmt list * stmt list

let rec render_block b =
  match b with
  | [] -> "()"
  | Alloc i :: rest ->
      Printf.sprintf "let h%d = intern_route t a in\n%s" i (render_block rest)
  | Release i :: rest -> Printf.sprintf "release_route t h%d;\n%s" i (render_block rest)
  | Use i :: rest -> Printf.sprintf "send_data t h%d;\n%s" i (render_block rest)
  | If (a, b') :: rest ->
      Printf.sprintf "(if c then begin\n%s\nend else begin\n%s\nend);\n%s" (render_block a)
        (render_block b') (render_block rest)

let render prog = "let f t a c =\n" ^ render_block prog

(* Scope-correct generator: Release/Use only name handles in scope;
   branch-local allocations die with the branch. Handle ids are globally
   fresh so violation messages identify them unambiguously. *)
let gen_prog =
  let open QCheck.Gen in
  let rec block ~depth ~fuel scope fresh =
    if fuel <= 0 then return ([], fresh)
    else
      let cont stmt scope fresh =
        map (fun (rest, f) -> (stmt :: rest, f)) (block ~depth ~fuel:(fuel - 1) scope fresh)
      in
      let choices =
        (3, cont (Alloc fresh) (fresh :: scope) (fresh + 1))
        :: (if scope = [] then []
            else
              [
                (3, oneofl scope >>= fun v -> cont (Release v) scope fresh);
                (2, oneofl scope >>= fun v -> cont (Use v) scope fresh);
              ])
        @ (if depth <= 0 then []
           else
             [
               ( 1,
                 block ~depth:(depth - 1) ~fuel:3 scope fresh >>= fun (a, f1) ->
                 block ~depth:(depth - 1) ~fuel:3 scope f1 >>= fun (b, f2) ->
                 cont (If (a, b)) scope f2 );
             ])
      in
      frequency choices
  in
  map fst (block ~depth:2 ~fuel:6 [] 0)

(* Reference interpreter: enumerate every path as a flat event sequence
   (a handle's scope closes at the end of the block that bound it), then
   simulate each path with literal release counters. *)
type ev = EAlloc of int | ERel of int | EUse of int | EEnd of int

let rec seqs block =
  match block with
  | [] -> [ [] ]
  | Alloc i :: rest -> List.map (fun s -> (EAlloc i :: s) @ [ EEnd i ]) (seqs rest)
  | Release i :: rest -> List.map (fun s -> ERel i :: s) (seqs rest)
  | Use i :: rest -> List.map (fun s -> EUse i :: s) (seqs rest)
  | If (a, b) :: rest ->
      let branches = seqs a @ seqs b and conts = seqs rest in
      List.concat_map (fun br -> List.map (fun k -> br @ k) conts) branches

module IMap = Map.Make (Int)

let reference_flags prog =
  let l1 = ref IMap.empty and l2 = ref IMap.empty in
  let mark m i = m := IMap.add i true !m in
  List.iter
    (fun path ->
      let rel = Hashtbl.create 8 in
      let count i = Option.value ~default:0 (Hashtbl.find_opt rel i) in
      List.iter
        (function
          | EAlloc i -> Hashtbl.replace rel i 0
          | ERel i ->
              if count i >= 1 then mark l2 i;
              Hashtbl.replace rel i (count i + 1)
          | EUse i -> if count i >= 1 then mark l2 i
          | EEnd i -> if count i = 0 then mark l1 i)
        path)
    (seqs prog);
  (!l1, !l2)

(* The walker's verdicts, keyed back to handles by the 'h<i>' the
   violation message names. *)
let walker_flags prog =
  let l1 = ref IMap.empty and l2 = ref IMap.empty in
  List.iter
    (fun (v : Lint_core.violation) ->
      let msg = v.message in
      let handle =
        let n = String.length msg in
        let rec find i =
          if i + 2 >= n then None
          else if msg.[i] = '\'' && msg.[i + 1] = 'h' then begin
            let j = ref (i + 2) in
            while !j < n && msg.[!j] >= '0' && msg.[!j] <= '9' do
              incr j
            done;
            if !j < n && msg.[!j] = '\'' && !j > i + 2 then
              Some (int_of_string (String.sub msg (i + 2) (!j - i - 2)))
            else find (i + 1)
          end
          else find (i + 1)
        in
        find 0
      in
      match handle with
      | None -> ()
      | Some i -> (
          match v.rule with
          | "L1" -> l1 := IMap.add i true !l1
          | "L2" -> l2 := IMap.add i true !l2
          | _ -> ()))
    (scan (render prog));
  (!l1, !l2)

let pp_flags (l1, l2) =
  let names m = String.concat "," (List.map (fun (i, _) -> "h" ^ string_of_int i) (IMap.bindings m)) in
  Printf.sprintf "L1:{%s} L2:{%s}" (names l1) (names l2)

let qcheck_walker_matches_reference =
  QCheck.Test.make ~count:500 ~name:"L-walker agrees with path enumeration"
    (QCheck.make ~print:(fun p -> render p ^ "\nreference: " ^ pp_flags (reference_flags p))
       gen_prog)
    (fun prog ->
      let re_l1, re_l2 = reference_flags prog in
      let wa_l1, wa_l2 = walker_flags prog in
      IMap.equal Bool.equal re_l1 wa_l1 && IMap.equal Bool.equal re_l2 wa_l2)

let suites =
  [
    ( "lint-life",
      [
        tc "L2: use after free flags" use_after_free_flags;
        tc "L2: double release flags" double_release_flags;
        tc "L1: leaks flag" leak_flags;
        tc "L2: wrong releaser flags" wrong_releaser_flags;
        tc "L2: loop-body release flags" loop_release_flags;
        tc "sanctioned intern/send/release idiom is quiet" sanctioned_idiom_ok;
        tc "ownership transfer is quiet" ownership_transfer_ok;
        tc "diverging paths owe no release" diverging_paths_exempt;
        QCheck_alcotest.to_alcotest qcheck_walker_matches_reference;
      ] );
  ]
