(* r2c2-lint: determinism & simulation-safety static analysis — parse pass.

   R2C2's congestion control (§3.2–3.3) requires every node to compute
   the same max-min allocation from the same broadcast traffic matrix,
   and the repro's tier-1 guarantee is bit-for-bit reproducible
   simulations. This module walks the parsetree of every `.ml` it is
   given (no typing — `Parse` + `Ast_iterator` from compiler-libs only)
   and rejects constructs that break either:

   D1  `Random.*` anywhere — the ambient PRNG is unseeded global state;
       only the explicit, splittable `Util.Rng` is allowed.
   D2  wall-clock / environment reads (`Unix.gettimeofday`, `Sys.time`,
       `Sys.getenv`, …) under `lib/` — simulation results must be a
       function of the seed, never of the host. `bench/` may time
       itself.
   D3  raw `Hashtbl.iter` / `Hashtbl.fold` — hash order depends on
       insertion history, so two rack nodes holding the same bindings
       can walk them differently; use `Util.Itbl` for int keys (its only
       iteration is sorted) and `Util.Tbl` (`sorted_keys` /
       `sorted_bindings` / `fold_sorted` / …) for others, which fix the
       order by key. Enforced in `lib/` and, since v3, in `bench/` and `test/`
       too (a bench or test that walks a table in hash order can mask a
       rack-divergence bug in the code under test).
   S1  `Obj.magic`, and catch-all `try … with _ ->` handlers that
       swallow exceptions (including assertion failures) silently.
   S2  bare polymorphic `compare` passed as a value (e.g.
       `List.sort compare`) — on pairs containing floats it orders NaN
       inconsistently and ties break by structural accident; use
       `Int.compare` / `Float.compare` / an explicit key comparator.
       (Purely syntactic: without types we flag every first-class bare
       `compare`; int-keyed sites should switch to `Int.compare`, which
       is also faster.)

   The units pass (dimensional analysis for the data plane; the type
   layer itself lives in `Util.Units`):

   U1  a raw float literal bound to a unit-carrying labeled argument
       (`~gbps:10.0`, `~headroom:0.05`, `~loss:(Some 0.3)`, …). The
       phantom types normally reject this at compile time; the lint
       keeps the rule visible where a local helper shadows the typed
       API with raw floats. Wrap the literal in its constructor:
       `~gbps:(Util.Units.gbps 10.0)`.
   U2  float arithmetic directly on a `to_float` result
       (`Util.Units.to_float r *. 2.0`). Unwrap-then-compute hides
       which unit the formula is in; let-bind the unwrapped value (so
       the binding names the unit) or express the computation as a
       `Util.Units` combinator. `lib/util/units.ml` itself — where the
       combinators are defined — is exempt.
   U3  wire-format symmetry. For every `encode_X`/`decode_X` pair the
       linter walks `putN`/`getN` field accesses symbolically
       (offsets resolved through top-level integer constants, and the
       identifier `off` — the batch writers' item-origin parameter —
       resolving to 0): the writer must stay inside — and exactly fill —
       the declared `Bytes.make` budget, fixed-offset writes must not
       overlap, and every fixed field the writer emits must be read back
       by the decoder at the same offset and width (and vice versa).

   The allocation pass (the zero-allocation data plane, DESIGN.md §11):

   A1  arena bypass on the packet path, under `lib/sim` only. Three
       shapes: a packet-shaped record literal (a `route` field next to
       a `kind` or `hop` field — the pre-arena `Net.packet` layout,
       one heap block per packet), `Array.copy` of anything
       route-named (routes are interned refcounted slices in
       `Arena.Ints`; copying one re-allocates per packet), and
       per-file bans of calls that allocate per packet: in `net.ml`,
       the link and FIB lookups `Topology.find_link` (an option per
       call) and `Broadcast.children` (a fresh list per call) and the
       boxed `Util.Rng.float`; in `r2c2_sim.ml`, `Routing.sample_path`
       (a vertex array per packet). Use the arena handle API,
       `Topology.find_link_id`, `Broadcast.fib`, `Util.Rng.below`, and
       `Routing.sample_into` with `Net.intern_prefix` instead.

   Since v3 two further rule families ride on top of this module's
   violation/suppression machinery but are implemented elsewhere
   (DESIGN.md §13):

   L1/L2  arena-lifetime rules over `lib/sim` (`Lint_life`): every
       `intern_route` / `intern_prefix` / `Arena.alloc` handle must reach exactly one
       release on every path, and must never be touched after it.
   M1–M3  domain-safety rules over the typed tree (`Lint_typed`):
       every toplevel mutable item in `lib/` must be declared in the
       ownership registry `tools/lint/ownership.sexp`, and closures
       capturing shard-owned state must not escape their module.
   E1–E3  shard-safety rules over the inferred interprocedural effect
       map (`Lint_effects`, v4): writes to `shard_owned` regions that
       are reachable from the event-dispatch roots must be keyed by the
       handler's node argument, `shared_readonly` state is written only
       by its owning module (or inside a `(* lint: init *)` …
       `(* lint: init end *)` span), and order-sensitive float
       reductions over effectful iteration must not sit on a
       dispatch-reachable path.

   Rule tiers. Each linted root runs one of three tiers:

     Lib      (lib/)            — everything above.
     Default  (bin/, examples/) — D1, S1, S2, U1–U3.
     Relaxed  (bench/, test/)   — D-rules only: D1 and D3. D2 stays
              off because a bench times itself by design; the S/U
              rules stay off because harness code legitimately builds
              raw fixtures.

   A violation can be suppressed with a justification comment on the
   offending line or the line directly above it:

       (* lint: allow D3 — order-independent: folding a commutative max *)

   The rule list may name several rules (`allow D2 D3 — …`); the reason
   after the dash is mandatory, and a malformed or reason-less allow is
   itself reported (rule LINT) and cannot be suppressed. Every rule an
   allow names must suppress at least one violation: a fully unused
   allow is stale, and a multi-rule allow whose rules are only partly
   exercised reports the unused rule names at its file:line. The
   summary counts applied suppressions so reviewers can see how much of
   the codebase is exempted. *)

type violation = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

(* Internal tool errors (unreadable .cmt, registry syntax error, bad
   usage) — distinct from lint violations: the driver exits 2, not 1, so
   CI can tell "the code is dirty" from "the linter is broken". *)
exception Internal of string

(* A stale allow: the comment's position plus the named rules that
   suppressed nothing (all of them for a fully unused allow). *)
type stale_allow = {
  sa_file : string;
  sa_line : int;
  sa_rules : string list;
}

type report = {
  violations : violation list;  (* sorted by (file, line, rule) *)
  files : int;
  suppressed : int;  (* violations silenced by a valid allow *)
  suppressed_by_rule : (string * int) list;  (* rule -> applied suppressions *)
  unused_allows : stale_allow list;  (* allows (or rules of one) that silenced nothing *)
}

let rules =
  [
    "A1"; "D1"; "D2"; "D3"; "E1"; "E2"; "E3"; "L1"; "L2"; "M1"; "M2"; "M3"; "S1"; "S2";
    "U1"; "U2"; "U3";
  ]

(* Which parse-level rules run where. L/M rules are driven from
   Lint_driver (L needs the sim scope, M needs .cmt files) but share the
   suppression machinery below. *)
type tier = Lib | Default | Relaxed

let tier_of_root root =
  let base =
    Filename.basename
      (if Filename.check_suffix root "/" then Filename.chop_suffix root "/" else root)
  in
  match base with
  | "lib" -> Lib
  | "bench" | "test" -> Relaxed
  | _ -> Default

(* -- suppression comments ------------------------------------------------ *)

type allow = { allow_rules : string list; mutable used_rules : string list }

let is_rule_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* Parses "lint: allow R1 R2 — reason" out of [line]. Returns
   [`None] (no marker), [`Malformed] or [`Allow rules]. *)
let parse_allow line =
  match find_substring line "lint: allow" with
  | None -> `None
  | Some i ->
      let rest = String.sub line (i + 11) (String.length line - i - 11) in
      (* Tokenize rule names up to the dash separator. *)
      let n = String.length rest in
      let rec rules_of j acc =
        if j >= n then (acc, n)
        else if rest.[j] = ' ' || rest.[j] = ',' then rules_of (j + 1) acc
        else if is_rule_char rest.[j] then begin
          let k = ref j in
          while !k < n && is_rule_char rest.[!k] do
            incr k
          done;
          rules_of !k (String.sub rest j (!k - j) :: acc)
        end
        else (acc, j)
      in
      let named, j = rules_of 0 [] in
      let named = List.rev named in
      (* Accept "—" (em dash), "--" or "-" as the reason separator. *)
      let rest = String.sub rest j (n - j) in
      let reason =
        let strip p s =
          let np = String.length p in
          if String.length s >= np && String.sub s 0 np = p then
            Some (String.sub s np (String.length s - np))
          else None
        in
        match (strip "\xe2\x80\x94" rest, strip "--" rest, strip "-" rest) with
        | Some r, _, _ | _, Some r, _ | _, _, Some r -> Some r
        | None, None, None -> None
      in
      let non_blank s = String.exists (fun c -> c <> ' ' && c <> '*' && c <> ')') s in
      let valid_rules = named <> [] && List.for_all (fun r -> List.mem r rules) named in
      (match reason with
      | Some r when valid_rules && non_blank r -> `Allow named
      | _ -> `Malformed)

let split_lines src =
  let out = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        out := String.sub src !start (i - !start) :: !out;
        start := i + 1
      end)
    src;
  out := String.sub src !start (String.length src - !start) :: !out;
  List.rev !out

(* -- AST checks ---------------------------------------------------------- *)

let path_of lid = String.concat "." (Longident.flatten lid)

let strip_stdlib p =
  if String.length p > 7 && String.sub p 0 7 = "Stdlib." then
    String.sub p 7 (String.length p - 7)
  else p

let has_root ~root p = p = root || String.length p > String.length root
                                   && String.sub p 0 (String.length root + 1) = root ^ "."

let clock_reads =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.gmtime";
    "Unix.localtime";
    "Sys.time";
    "Sys.getenv";
    "Sys.getenv_opt";
    "Unix.getenv";
    "Unix.environment";
  ]

let check_path ~check_d2 ~check_d3 add path loc =
  let p = strip_stdlib path in
  if has_root ~root:"Random" p then
    add "D1" loc
      (Printf.sprintf "'%s' is ambient nondeterministic state; use Util.Rng (seeded, splittable)"
         path);
  if check_d2 && List.mem p clock_reads then
    add "D2" loc
      (Printf.sprintf
         "'%s' reads the host clock/environment; lib/ results must be a function of the seed"
         path);
  if check_d3 && (p = "Hashtbl.iter" || p = "Hashtbl.fold") then
    let sorted = if p = "Hashtbl.iter" then "iter_sorted" else "fold_sorted" in
    add "D3" loc
      (Printf.sprintf
         "raw '%s' iterates in hash order (a rack-divergence hazard); use Util.Itbl.%s for \
          int keys, Util.Tbl.%s ~cmp:… for others"
         path sorted sorted)

(* U1: the canonical unit table — labeled arguments that carry a physical
   quantity in the public API, with the constructor a raw literal must be
   wrapped in (DESIGN.md §10). *)
let unit_labels =
  [
    ("gbps", "Util.Units.gbps");
    ("link_gbps", "Util.Units.gbps");
    ("rate_gbps", "Util.Units.gbps");
    ("headroom", "Util.Units.fraction");
    ("load", "Util.Units.fraction");
    ("loss", "Util.Units.fraction");
    ("reorder", "Util.Units.fraction");
    ("dup", "Util.Units.fraction");
    ("demand", "Util.Units.byte_rate");
    ("rate", "Util.Units.byte_rate");
    ("allocation", "Util.Units.byte_rate");
    ("queued_bytes", "Util.Units.bytes");
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let last_component lid =
  match (try Longident.flatten lid with Misc.Fatal_error -> []) with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

(* A1 helper: does an expression mention anything route-named (an ident or
   record field whose name contains "route")? Syntactic, like the rest of
   the pass — the naming convention is what makes routes greppable. *)
let mentions_route e =
  let found = ref false in
  let has_route s = find_substring s "route" <> None in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } when has_route (last_component txt) -> found := true
    | Pexp_field (_, { txt; _ }) when has_route (last_component txt) -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* A1 per file: calls that allocate per packet, each with the
   allocation-free replacement. `net.ml` is the fabric's per-hop path;
   `r2c2_sim.ml` picks every data packet's route. *)
let a1_banned_in file =
  match Filename.basename file with
  | "net.ml" ->
      [
        ( "Topology.find_link",
          "returns an option per call; use Topology.find_link_id (-1 = not adjacent)" );
        ( "Broadcast.children",
          "builds a fresh list per call; walk the vertex's set bits in Broadcast.fib" );
        ("Util.Rng.float", "returns a boxed float under -opaque; use Util.Rng.below");
      ]
  | "r2c2_sim.ml" ->
      [
        ( "Routing.sample_path",
          "allocates a vertex array per packet; use Routing.sample_into and intern the \
           buffer prefix with Net.intern_prefix" );
      ]
  | _ -> []

let lint_structure ~tier ~check_u2 ~check_a1 ~a1_banned ~add structure =
  let open Parsetree in
  let check_d2 = tier = Lib in
  let check_d3 = tier = Lib || tier = Relaxed in
  let check_s = tier <> Relaxed in
  let check_u = tier <> Relaxed in
  let check_u2 = check_u && check_u2 in
  let is_float_lit e =
    match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false
  in
  let expr (iter : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        check_path ~check_d2 ~check_d3 add (path_of txt) loc;
        (match List.assoc_opt (path_of txt) a1_banned with
        | Some why ->
            add "A1" loc
              (Printf.sprintf "'%s' on the packet path %s" (path_of txt) why)
        | None -> ());
        if check_s && strip_stdlib (path_of txt) = "Obj.magic" then
          add "S1" loc "'Obj.magic' defeats the type system"
    | Pexp_record (fields, _) when check_a1 ->
        let labels = List.map (fun (({ txt; _ } : _ Location.loc), _) -> last_component txt) fields in
        let has l = List.mem l labels in
        if has "route" && (has "kind" || has "hop") then
          add "A1" e.pexp_loc
            "packet-shaped record literal (route alongside kind/hop) allocates one heap \
             block per packet; packets are arena handles — allocate through Net/Arena and \
             use the packed accessors"
    | Pexp_apply (fn, args) ->
        (match fn.pexp_desc with
        | Pexp_ident { txt; loc } when check_a1 && strip_stdlib (path_of txt) = "Array.copy"
          -> (
            match args with
            | (_, arg) :: _ when mentions_route arg ->
                add "A1" loc
                  "'Array.copy' of a route allocates per packet; routes are interned \
                   refcounted slices — share the handle (Arena.Ints retain/release)"
            | _ -> ())
        | _ -> ());
        List.iter
          (fun ((lbl, a) : Asttypes.arg_label * expression) ->
            (if check_s then
               match a.pexp_desc with
               | Pexp_ident { txt = Longident.Lident "compare"; loc }
               | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Stdlib", "compare"); loc } ->
                   add "S2" loc
                     "bare polymorphic 'compare' as a comparator (NaN/tie-break hazard); use \
                      Int.compare, Float.compare or an explicit key comparator"
               | _ -> ());
            if check_u then
              match lbl with
              | Asttypes.Labelled l | Asttypes.Optional l -> (
                  match List.assoc_opt l unit_labels with
                  | Some ctor ->
                      let bare = is_float_lit a in
                      let in_some =
                        match a.pexp_desc with
                        | Pexp_construct ({ txt = Longident.Lident "Some"; _ }, Some inner) ->
                            is_float_lit inner
                        | _ -> false
                      in
                      if bare || in_some then
                        add "U1" a.pexp_loc
                          (Printf.sprintf
                             "raw float literal bound to unit-carrying label '~%s'; wrap it in \
                              its constructor, e.g. '~%s:(%s …)'"
                             l l ctor)
                  | None -> ())
              | Asttypes.Nolabel -> ())
          args;
        (match fn.pexp_desc with
        | Pexp_ident { txt = Longident.Lident op; _ }
          when check_u2 && List.mem op float_ops ->
            List.iter
              (fun ((_, a) : Asttypes.arg_label * expression) ->
                match a.pexp_desc with
                | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _)
                  when last_component txt = "to_float" ->
                    add "U2" loc
                      (Printf.sprintf
                         "'%s' applied directly to a 'to_float' result loses the unit; \
                          let-bind the unwrapped value or use a Util.Units combinator"
                         op)
                | _ -> ())
              args
        | _ -> ())
    | Pexp_try (_, cases) when check_s ->
        List.iter
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_any ->
                add "S1" c.pc_lhs.ppat_loc
                  "catch-all 'try … with _ ->' swallows every exception (including \
                   Assert_failure); match the specific exceptions instead"
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr iter e
  in
  let check_open path loc =
    let p = strip_stdlib path in
    if has_root ~root:"Random" p then
      add "D1" loc "'open Random' imports ambient nondeterministic state; use Util.Rng";
    if check_d3 && has_root ~root:"Hashtbl" p then
      add "D3" loc "'open Hashtbl' hides raw iteration from this linter; qualify Hashtbl calls instead"
  in
  let open_description iter (od : open_description) =
    check_open (path_of od.popen_expr.txt) od.popen_loc;
    Ast_iterator.default_iterator.open_description iter od
  in
  (* `open M` in a structure (and `let open M in …`) carries a module
     expression, not a bare path. *)
  let open_declaration iter (od : open_declaration) =
    (match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> check_open (path_of txt) od.popen_loc
    | _ -> ());
    Ast_iterator.default_iterator.open_declaration iter od
  in
  let iterator =
    { Ast_iterator.default_iterator with expr; open_description; open_declaration }
  in
  iterator.structure iterator structure

(* -- U3: wire-format budget and encoder/decoder symmetry ------------------ *)

(* Fixed-width field accessors, by the last component of the called path.
   Both the Wire helpers (put16/get16) and the raw Bytes primitives they
   wrap are understood, so the walk survives inlining a helper. *)
let put_widths =
  [
    ("put8", 1);
    ("put16", 2);
    ("put32", 4);
    ("put64", 8);
    ("set_uint8", 1);
    ("set_uint16_be", 2);
    ("set_int32_be", 4);
    ("set_int64_be", 8);
  ]

let get_widths =
  [
    ("get8", 1);
    ("get16", 2);
    ("get32", 4);
    ("get64", 8);
    ("get_uint8", 1);
    ("get_uint16_be", 2);
    ("get_int32_be", 4);
    ("get_int64_be", 8);
  ]

type access = {
  a_off : int option;  (* None: offset is computed, not statically resolvable *)
  a_width : int;
  a_loc : Location.t;
}

type wire_fn = {
  w_name : string;
  w_loc : Location.t;
  w_size : (int option * Location.t) option;  (* Bytes.make budget, if any *)
  w_puts : access list;
  w_gets : access list;
}

(* Top-level `let name = <int literal>` bindings: the offset/size constants
   the symbolic walk resolves through. *)
let int_consts structure =
  let open Parsetree in
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
              | Ppat_var { txt; _ }, Pexp_constant (Pconst_integer (s, None)) -> (
                  match int_of_string_opt s with Some v -> (txt, v) :: acc | None -> acc)
              | _ -> acc)
            acc vbs
      | _ -> acc)
    [] structure

let rec resolve_int consts (e : Parsetree.expression) =
  let open Parsetree in
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | Pexp_ident { txt = Longident.Lident "off"; _ } when not (List.mem_assoc "off" consts)
    ->
      (* Symbolic batch base: a writer taking [~off] and addressing
         [off + field] is the whole-buffer encoder relocated to an item
         origin, so the budget and symmetry checks hold with [off] = 0.
         Only the literal name [off] gets this treatment, and a top-level
         [off] constant still wins. *)
      Some 0
  | Pexp_ident { txt = Longident.Lident n; _ } -> List.assoc_opt n consts
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "+"; _ }; _ }, [ (_, a); (_, b) ])
    -> (
      match (resolve_int consts a, resolve_int consts b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | _ -> None

(* Collect Bytes.make budgets and putN/getN accesses inside one function
   body. *)
let collect_accesses consts body =
  let open Parsetree in
  let size = ref None and puts = ref [] and gets = ref [] in
  let expr (iter : Ast_iterator.iterator) e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
        let name = last_component txt in
        let full = strip_stdlib (path_of txt) in
        if full = "Bytes.make" && !size = None then begin
          match args with
          | (_, sz) :: _ -> size := Some (resolve_int consts sz, loc)
          | [] -> ()
        end;
        let record store width =
          (* putN buf off v / getN buf off: the offset is the second
             positional argument. *)
          match args with
          | _ :: (_, off) :: _ ->
              store := { a_off = resolve_int consts off; a_width = width; a_loc = loc } :: !store
          | _ -> ()
        in
        match (List.assoc_opt name put_widths, List.assoc_opt name get_widths) with
        | Some w, _ -> record puts w
        | None, Some w -> record gets w
        | None, None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr iter e
  in
  let iterator = { Ast_iterator.default_iterator with expr } in
  iterator.expr iterator body;
  (!size, List.rev !puts, List.rev !gets)

let wire_fns structure =
  let open Parsetree in
  let consts = int_consts structure in
  List.fold_left
    (fun acc item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ }
                when String.length txt > 7
                     && (String.sub txt 0 7 = "encode_" || String.sub txt 0 7 = "decode_") ->
                  let w_size, w_puts, w_gets = collect_accesses consts vb.pvb_expr in
                  { w_name = txt; w_loc = vb.pvb_pat.ppat_loc; w_size; w_puts; w_gets } :: acc
              | _ -> acc)
            acc vbs
      | _ -> acc)
    [] structure
  |> List.rev

let static accesses = List.filter_map (fun a -> Option.map (fun o -> (o, a)) a.a_off) accesses

let lint_wire ~add structure =
  let fns = wire_fns structure in
  let encoders = List.filter (fun f -> String.sub f.w_name 0 7 = "encode_") fns in
  (* Budget: every statically-addressed write stays inside the declared
     Bytes.make size, never overlaps a sibling, and — when every write is
     static — exactly fills the budget. *)
  List.iter
    (fun f ->
      match f.w_size with
      | Some (Some size, size_loc) ->
          let statics = List.sort (fun (a, _) (b, _) -> Int.compare a b) (static f.w_puts) in
          let dynamic = List.exists (fun a -> a.a_off = None) f.w_puts in
          List.iter
            (fun (off, a) ->
              if off + a.a_width > size then
                add "U3" a.a_loc
                  (Printf.sprintf
                     "'%s' writes %d byte(s) at offset %d, overrunning its declared size %d"
                     f.w_name a.a_width off size))
            statics;
          let rec overlaps = function
            | (o1, a1) :: ((o2, a2) :: _ as rest) ->
                if o1 + a1.a_width > o2 then
                  add "U3" a2.a_loc
                    (Printf.sprintf
                       "'%s': the %d-byte write at offset %d overlaps the %d-byte write at \
                        offset %d"
                       f.w_name a2.a_width o2 a1.a_width o1);
                overlaps rest
            | _ -> []
          in
          ignore (overlaps statics);
          if (not dynamic) && statics <> [] then begin
            let last = List.fold_left (fun m (o, a) -> max m (o + a.a_width)) 0 statics in
            if last < size then
              add "U3" size_loc
                (Printf.sprintf
                   "'%s' declares a %d-byte packet but its writes end at byte %d (%d byte(s) \
                    of slack)"
                   f.w_name size last (size - last))
          end
      | _ -> ())
    encoders;
  (* Symmetry: the decoder must read back exactly the fixed fields the
     encoder wrote — same offsets, same widths. *)
  List.iter
    (fun enc ->
      let base = String.sub enc.w_name 7 (String.length enc.w_name - 7) in
      match List.find_opt (fun f -> f.w_name = "decode_" ^ base) fns with
      | None -> ()
      | Some dec ->
          let writes = static enc.w_puts and reads = static dec.w_gets in
          let mem (o, a) l = List.exists (fun (o', a') -> o = o' && a.a_width = a'.a_width) l in
          List.iter
            (fun (o, a) ->
              if not (mem (o, a) reads) then
                add "U3" a.a_loc
                  (Printf.sprintf
                     "'%s' writes %d byte(s) at offset %d that '%s' never reads back at that \
                      offset/width"
                     enc.w_name a.a_width o dec.w_name))
            writes;
          List.iter
            (fun (o, a) ->
              if not (mem (o, a) writes) then
                add "U3" a.a_loc
                  (Printf.sprintf
                     "'%s' reads %d byte(s) at offset %d that '%s' never writes at that \
                      offset/width"
                     dec.w_name a.a_width o enc.w_name))
            reads)
    encoders

(* -- scan / finalize ------------------------------------------------------ *)

(* A scanned file: raw (unsuppressed) violations plus its allow table.
   Kept open so Lint_driver can merge in typed-tree (M) and lifetime (L)
   violations attributed to the same file before suppression runs. *)
type scanned = {
  s_file : string;
  mutable s_raw : violation list;
  s_allows : (int, allow) Hashtbl.t;
  s_structure : Parsetree.structure option;  (* None when the file does not parse *)
}

let in_sim file = List.mem "sim" (String.split_on_char '/' file)

(* The allow table of one source file plus the malformed-allow (LINT)
   violations — shared between the `.ml` scan below and the comment-only
   `.mli` scan (`scan_allows_only`). *)
let scan_allow_lines ~file src =
  let allows = Hashtbl.create 8 in
  let raw = ref [] in
  List.iteri
    (fun i line ->
      match parse_allow line with
      | `None -> ()
      | `Allow rs -> Hashtbl.replace allows (i + 1) { allow_rules = rs; used_rules = [] }
      | `Malformed ->
          raw :=
            {
              file;
              line = i + 1;
              rule = "LINT";
              message =
                "malformed suppression; expected '(* lint: allow RULE — reason *)' with a \
                 non-empty reason";
            }
            :: !raw)
    (split_lines src);
  (allows, !raw)

(* `(* lint: init *)` … `(* lint: init end *)` spans: the E2 rule's
   initialization windows. Returns inclusive (start, stop) line pairs;
   an unclosed opener extends to end of file. Matching is the same raw
   line scan the allow table uses, so the markers work in any comment
   style. *)
let init_spans src =
  let spans = ref [] and opened = ref None in
  List.iteri
    (fun i line ->
      let l = i + 1 in
      if find_substring line "lint: init end" <> None then (
        match !opened with
        | Some s ->
            spans := (s, l) :: !spans;
            opened := None
        | None -> ())
      else if find_substring line "lint: init" <> None then
        match !opened with None -> opened := Some l | Some _ -> ())
    (split_lines src);
  (match !opened with Some s -> spans := (s, max_int) :: !spans | None -> ());
  List.rev !spans

let scan_source ~file ~tier src =
  let allows, raw0 = scan_allow_lines ~file src in
  let raw = ref raw0 in
  let add rule (loc : Location.t) message =
    let line = loc.loc_start.pos_lnum in
    raw := { file; line; rule; message } :: !raw
  in
  let structure =
    try
      let lexbuf = Lexing.from_string src in
      Location.init lexbuf file;
      let structure = Parse.implementation lexbuf in
      (* The combinator definitions in Util.Units are the one place raw
         arithmetic on unwrapped floats is the point. *)
      let check_u2 = Filename.basename file <> "units.ml" in
      (* A1 patrols the packet-rate data plane only: any file under a
         `sim` directory component. *)
      let check_a1 = tier = Lib && in_sim file in
      let a1_banned = if check_a1 then a1_banned_in file else [] in
      lint_structure ~tier ~check_u2 ~check_a1 ~a1_banned ~add structure;
      if tier <> Relaxed then lint_wire ~add structure;
      Some structure
    with exn ->
      let message =
        match exn with
        | Syntaxerr.Error _ -> "syntax error: file does not parse"
        | _ -> Printf.sprintf "parse failure: %s" (Printexc.to_string exn)
      in
      raw := { file; line = 1; rule = "LINT"; message } :: !raw;
      None
  in
  { s_file = file; s_raw = !raw; s_allows = allows; s_structure = structure }

(* Comment-only scan for interface files: builds the allow table (so
   stale allows in `.mli` files are reported like `.ml` ones) without
   attempting to parse the file as an implementation. *)
let scan_allows_only ~file src =
  let allows, raw = scan_allow_lines ~file src in
  { s_file = file; s_raw = raw; s_allows = allows; s_structure = None }

let add_violations scanned vs = scanned.s_raw <- vs @ scanned.s_raw

(* Applies the allow table: drops suppressed violations, counts
   suppressions per rule, and reports stale allows (including the unused
   rule names of a partially-used multi-rule allow). *)
let finalize scanned =
  let suppressed = ref 0 in
  let suppressed_rules = ref [] in
  let keep v =
    if v.rule = "LINT" then true (* malformed allows are never suppressible *)
    else begin
      let covered line =
        match Hashtbl.find_opt scanned.s_allows line with
        | Some a when List.mem v.rule a.allow_rules ->
            if not (List.mem v.rule a.used_rules) then a.used_rules <- v.rule :: a.used_rules;
            true
        | _ -> false
      in
      (* The allow may sit on the offending line or directly above it. *)
      if covered v.line || covered (v.line - 1) then begin
        incr suppressed;
        suppressed_rules := v.rule :: !suppressed_rules;
        false
      end
      else true
    end
  in
  let violations =
    List.sort
      (fun a b ->
        let c = Int.compare a.line b.line in
        if c <> 0 then c else String.compare a.rule b.rule)
      (List.filter keep scanned.s_raw)
  in
  let unused =
    List.sort
      (fun a b -> Int.compare a.sa_line b.sa_line)
      (Hashtbl.fold
         (fun line a acc ->
           let stale = List.filter (fun r -> not (List.mem r a.used_rules)) a.allow_rules in
           if stale = [] then acc
           else { sa_file = scanned.s_file; sa_line = line; sa_rules = stale } :: acc)
         scanned.s_allows [])
  in
  let by_rule =
    List.map
      (fun r -> (r, List.length (List.filter (String.equal r) !suppressed_rules)))
      rules
  in
  {
    violations;
    files = 1;
    suppressed = !suppressed;
    suppressed_by_rule = by_rule;
    unused_allows = unused;
  }

(* Back-compat single-file entry (parse rules only; the L/M passes are
   composed by Lint_driver). [in_lib] maps to the Lib/Default tiers. *)
let lint_source ?tier ~file ~in_lib src =
  let tier = match tier with Some t -> t | None -> if in_lib then Lib else Default in
  finalize (scan_source ~file ~tier src)

let read_file file =
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let lint_file ~in_lib file = lint_source ~file ~in_lib (read_file file)

(* -- tree walking -------------------------------------------------------- *)

(* An entry that is gone by the time it is checked is skipped: a build
   running next to the walk renames and deletes its artifacts, and a
   dangling symlink looks the same. *)
let rec files_under ~suffix path =
  match Sys.is_directory path with
  | exception Sys_error _ -> []
  | true ->
      let entries = try Sys.readdir path with Sys_error _ -> [||] in
      Array.sort String.compare entries (* Sys.readdir order is unspecified *);
      Array.fold_left
        (fun acc e -> acc @ files_under ~suffix (Filename.concat path e))
        [] entries
  | false -> if Filename.check_suffix path suffix then [ path ] else []

let ml_files_under = files_under ~suffix:".ml"
let mli_files_under = files_under ~suffix:".mli"

let merge a b =
  {
    violations = a.violations @ b.violations;
    files = a.files + b.files;
    suppressed = a.suppressed + b.suppressed;
    suppressed_by_rule =
      List.map
        (fun r ->
          let n l = try List.assoc r l with Not_found -> 0 in
          (r, n a.suppressed_by_rule + n b.suppressed_by_rule))
        rules;
    unused_allows = a.unused_allows @ b.unused_allows;
  }

let empty =
  {
    violations = [];
    files = 0;
    suppressed = 0;
    suppressed_by_rule = List.map (fun r -> (r, 0)) rules;
    unused_allows = [];
  }

let lint_root root =
  let in_lib = tier_of_root root = Lib in
  List.fold_left (fun acc f -> merge acc (lint_file ~in_lib f)) empty (ml_files_under root)

let lint_roots roots = List.fold_left (fun acc r -> merge acc (lint_root r)) empty roots

(* -- reporting ----------------------------------------------------------- *)

let pp_violation oc v =
  Printf.fprintf oc "%s:%d: [%s] %s\n" v.file v.line v.rule v.message

let pp_stale oc sa =
  Printf.fprintf oc
    "%s:%d: stale 'lint: allow %s' — %s nothing; delete %s\n"
    sa.sa_file sa.sa_line
    (String.concat " " sa.sa_rules)
    (match sa.sa_rules with [ _ ] -> "it suppresses" | _ -> "these rules suppress")
    (match sa.sa_rules with [ _ ] -> "it" | _ -> "them from the allow")

let report_and_exit_code oc r =
  List.iter (pp_violation oc) r.violations;
  List.iter (pp_stale oc) r.unused_allows;
  Printf.fprintf oc
    "r2c2-lint: %d file(s), %d violation(s), %d suppression(s) applied, %d stale allow(s)\n"
    r.files (List.length r.violations) r.suppressed (List.length r.unused_allows);
  Printf.fprintf oc "  per rule (violations/suppressions):";
  List.iter
    (fun rule ->
      let v = List.length (List.filter (fun x -> x.rule = rule) r.violations) in
      let s = try List.assoc rule r.suppressed_by_rule with Not_found -> 0 in
      Printf.fprintf oc " %s %d/%d" rule v s)
    (rules @ [ "LINT" ]);
  Printf.fprintf oc "\n";
  if r.violations = [] && r.unused_allows = [] then 0 else 1
