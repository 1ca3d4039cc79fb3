(* L-rules: arena-lifetime discipline on the packet path (DESIGN.md §13).

   PR 6 made packets and routes manual-lifetime objects: a route is a
   refcounted `Arena.Ints` slice minted by `Net.intern_route` and dropped
   by `Net.release_route`; a packet is an `Arena.alloc` handle recycled by
   `Arena.free`. The runtime detects double frees but a leaked or stale
   handle is silent until the pool's drift corrupts a later run. This
   pass proves the discipline statically, intraprocedurally, in the same
   symbolic style as the U3 offset walker (parsetree only, no typing):

   L1  a handle minted by `intern_route`/`intern`/`intern_prefix` /
       `Arena.Ints.of_array`/`of_prefix` / `Arena.alloc`/`alloc_uninit` /
       `alloc_pkt` and bound to a variable
       must reach a release on EVERY path through its binding scope —
       "never released" and "released on only some paths" both flag, as
       does minting a handle and discarding the result outright.
   L2  a released handle is dead: using it, releasing it again (on any
       path), letting it escape after release, or handing it to the
       wrong releaser (a route to `Arena.free`, a packet to
       `release_route`) all flag.

   The walk is an exists-path abstract interpretation over a four-point
   lattice per tracked handle:

       Live --release--> Released        (joins: Live ⊔ Released =
       anything --escape--> Escaped       MaybeReleased; Escaped wins)

   Ownership transfer keeps the rules honest on real code: a handle that
   escapes — returned, stored in a record/array/closure, or passed to a
   function that is neither a releaser nor a known borrower — is assumed
   to transfer ownership and stops being tracked (the releasing module
   is then responsible; `tcp_sim` storing interned routes in flow state
   is the canonical example). Known borrowers (`send_*`, arena
   accessors, comparison/arithmetic operators, printers) do NOT transfer
   ownership, which is what lets the walker prove the dominant pattern

       let route = Net.intern_route t.net path in
       Net.send_data t.net … ~route;
       Net.release_route t.net route

   end-to-end. Branches that syntactically diverge (`raise`,
   `invalid_arg`, `failwith`, `assert false`, `exit`) are exempt from
   the release obligation, matching the runtime (the pool dies with the
   process). Lambdas are analyzed as fresh scopes; capturing a tracked
   handle in a lambda is an escape (the closure may outlive the scope).
   The test suite cross-checks the walker against a reference
   interpreter over qcheck-generated alloc/release/use programs. *)

type kind = Route | Pkt

let kind_name = function Route -> "route" | Pkt -> "packet"

let alloc_kind = function
  | "intern_route" | "intern" | "intern_prefix" | "of_array" | "of_prefix" -> Some Route
  | "alloc" | "alloc_uninit" | "alloc_pkt" -> Some Pkt
  | _ -> None

let release_kind = function
  | "release_route" | "release" -> Some Route
  | "free" | "free_pkt" -> Some Pkt
  | _ -> None

(* Functions that read through a handle without taking ownership. A
   conservative, greppable list: arena/slice accessors, the Net send
   API (callers release after sending — Net retains per packet), and
   pure operators a handle can flow through as a plain int. *)
let borrow_names =
  [
    "retain"; "get"; "set"; "slen"; "sget"; "fget"; "fset";
    "length"; "is_live"; "base"; "width"; "live"; "capacity"; "high_water";
    "ignore"; "min"; "max"; "succ"; "pred"; "abs"; "not";
    "printf"; "eprintf"; "fprintf"; "sprintf";
    "="; "<>"; "=="; "!="; "<"; ">"; "<="; ">=";
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
  ]

let is_borrow name =
  List.mem name borrow_names
  || String.length name > 5 && String.sub name 0 5 = "send_"

let diverging_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

type status = Live | MaybeReleased | Released | Escaped

type entry = { e_kind : kind; e_status : status; e_loc : Location.t }

(* State: tracked handles in scope, innermost first. Purely functional so
   branches fork it freely. *)
type state = (string * entry) list

let join_status a b =
  match (a, b) with
  | Escaped, _ | _, Escaped -> Escaped
  | Released, Released -> Released
  | Live, Live -> Live
  | _ -> MaybeReleased

(* Both branches bind the same scope, so the domains match. *)
let join_state (a : state) (b : state) : state =
  List.map2
    (fun (n, ea) (n', eb) ->
      assert (n = n');
      (n, { ea with e_status = join_status ea.e_status eb.e_status }))
    a b

let set_status st name status =
  List.map (fun (n, e) -> if n = name then (n, { e with e_status = status }) else (n, e)) st

type ctx = { file : string; mutable out : Lint_core.violation list }

let add ctx rule (loc : Location.t) message =
  ctx.out <-
    { Lint_core.file = ctx.file; line = loc.loc_start.pos_lnum; rule; message } :: ctx.out

let last_component lid =
  match (try Longident.flatten lid with Misc.Fatal_error -> []) with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

let fn_name (e : Parsetree.expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> last_component txt | _ -> ""

(* -- events ---------------------------------------------------------------- *)

let on_use ctx st name loc =
  match List.assoc_opt name st with
  | Some { e_status = Released; e_kind; _ } ->
      add ctx "L2" loc
        (Printf.sprintf "%s handle '%s' used after release" (kind_name e_kind) name);
      st
  | Some { e_status = MaybeReleased; e_kind; _ } ->
      add ctx "L2" loc
        (Printf.sprintf "%s handle '%s' used after release on some path(s)"
           (kind_name e_kind) name);
      st
  | _ -> st

let on_escape ctx st name loc =
  match List.assoc_opt name st with
  | Some { e_status = Released; e_kind; _ } ->
      add ctx "L2" loc
        (Printf.sprintf "%s handle '%s' escapes after release" (kind_name e_kind) name);
      set_status st name Escaped
  | Some { e_status = MaybeReleased; e_kind; _ } ->
      add ctx "L2" loc
        (Printf.sprintf "%s handle '%s' escapes after release on some path(s)"
           (kind_name e_kind) name);
      set_status st name Escaped
  | Some _ -> set_status st name Escaped
  | None -> st

let on_release ctx st name ~releaser loc =
  match List.assoc_opt name st with
  | None -> st
  | Some { e_status; e_kind; _ } -> (
      (match releaser with
      | Some rk when rk <> e_kind ->
          add ctx "L2" loc
            (Printf.sprintf
               "%s handle '%s' passed to a %s releaser — mismatched release recycles the \
                wrong pool"
               (kind_name e_kind) name (kind_name rk))
      | _ -> ());
      match e_status with
      | Escaped -> st
      | Released ->
          add ctx "L2" loc
            (Printf.sprintf "%s handle '%s' released twice" (kind_name e_kind) name);
          st
      | MaybeReleased ->
          add ctx "L2" loc
            (Printf.sprintf "%s handle '%s' released twice on some path(s)"
               (kind_name e_kind) name);
          set_status st name Released
      | Live -> set_status st name Released)

let on_scope_end ctx st name =
  match List.assoc_opt name st with
  | Some { e_status = Live; e_kind; e_loc } ->
      add ctx "L1" e_loc
        (Printf.sprintf
           "%s handle '%s' is never released on any path through its scope; call %s before \
            the binding goes out of scope (or hand ownership off explicitly)"
           (kind_name e_kind) name
           (match e_kind with Route -> "release_route" | Pkt -> "Arena.free"))
  | Some { e_status = MaybeReleased; e_kind; e_loc } ->
      add ctx "L1" e_loc
        (Printf.sprintf
           "%s handle '%s' is released on only some paths through its scope — every branch \
            must release exactly once"
           (kind_name e_kind) name)
  | _ -> ()

(* -- the walk --------------------------------------------------------------- *)

open Parsetree

let alloc_of (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> alloc_kind (fn_name fn)
  | _ -> None

let is_diverging_apply fn = List.mem (fn_name fn) diverging_names

(* walk returns [None] when every path through [e] diverges (raises), so
   enclosing scopes drop the release obligation on that path. *)
let rec walk ctx (st : state) (e : expression) : state option =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; loc } ->
      (* A bare tracked ident in value position: returned, stored,
         aliased — ownership leaves this scope. *)
      Some (on_escape ctx st name loc)
  | Pexp_ident _ | Pexp_constant _ | Pexp_construct (_, None) | Pexp_variant (_, None)
  | Pexp_unreachable ->
      Some st
  | Pexp_let (Asttypes.Nonrecursive, [ vb ], body) -> walk_let ctx st vb body
  | Pexp_sequence (a, b) -> (
      (* A minted handle in statement position is dropped on the floor:
         flag it here rather than silently losing it. *)
      (match alloc_of a with
      | Some k ->
          add ctx "L1" a.pexp_loc
            (Printf.sprintf
               "%s handle minted and immediately discarded; bind it and release it (or \
                store it somewhere that owns it)"
               (kind_name k))
      | None -> ());
      match walk ctx st a with None -> None | Some st -> walk ctx st b)
  | Pexp_ifthenelse (c, t, f) -> (
      match walk ctx st c with
      | None -> None
      | Some st0 -> (
          let tb = walk ctx st0 t in
          let fb = match f with None -> Some st0 | Some f -> walk ctx st0 f in
          match (tb, fb) with
          | None, x | x, None -> x
          | Some a, Some b -> Some (join_state a b)))
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) -> (
      match walk ctx st scrut with
      | None when (match e.pexp_desc with Pexp_match _ -> true | _ -> false) -> None
      | None -> Some st (* try: the handler still runs from the pre state *)
      | Some st0 ->
          let results =
            List.filter_map
              (fun c ->
                let st0 = shadow ctx st0 c.pc_lhs in
                let st0 =
                  match c.pc_guard with
                  | None -> Some st0
                  | Some g -> walk ctx st0 g
                in
                match st0 with None -> None | Some st0 -> walk ctx st0 c.pc_rhs)
              cases
          in
          let results =
            (* try: the no-exception path falls through with the body's
               state as-is. *)
            match e.pexp_desc with
            | Pexp_try _ -> st0 :: results
            | _ -> results
          in
          (match results with
          | [] -> None
          | r :: rest -> Some (List.fold_left join_state r rest)))
  | Pexp_apply (fn, args) -> walk_apply ctx st e fn args
  | Pexp_fun (_, default, pat, body) ->
      let st = escape_all ctx st (match default with None -> [] | Some d -> [ d ]) in
      let st = escape_all ctx st [ body ] in
      ignore (shadow ctx st pat);
      scan_scope ctx ~file:ctx.file body;
      Some st
  | Pexp_function cases ->
      let st =
        List.fold_left
          (fun st c ->
            let st = escape_all ctx st (Option.to_list c.pc_guard @ [ c.pc_rhs ]) in
            scan_scope ctx ~file:ctx.file c.pc_rhs;
            st)
          st cases
      in
      Some st
  | Pexp_while (c, body) -> walk_loop ctx st [ c ] body
  | Pexp_for (_, lo, hi, _, body) -> walk_loop ctx st [ lo; hi ] body
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
    ->
      None
  | Pexp_assert inner | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _)
  | Pexp_open (_, inner) | Pexp_newtype (_, inner) | Pexp_lazy inner ->
      walk ctx st inner
  | Pexp_construct ({ txt = Longident.Lident "()"; _ }, Some inner) -> walk ctx st inner
  | _ ->
      (* Everything else (records, tuples, arrays, setfield, letmodule,
         multi-binding lets, …): conservatively escape every tracked
         handle mentioned inside, and still analyze nested lambdas as
         fresh scopes so interior allocations stay checked. *)
      Some (escape_all ctx st (sub_expressions e))

and walk_let ctx st vb body =
  match (vb.pvb_pat.ppat_desc, alloc_of vb.pvb_expr) with
  | Ppat_var { txt = name; _ }, Some kind -> (
      (* Walk the allocator's arguments first (they may touch other
         tracked handles), then track the fresh binding through [body]. *)
      let st0 =
        match vb.pvb_expr.pexp_desc with
        | Pexp_apply (_, args) -> walk_args ctx st args
        | _ -> Some st
      in
      match st0 with
      | None -> None
      | Some st0 -> (
          let tracked =
            (name, { e_kind = kind; e_status = Live; e_loc = vb.pvb_pat.ppat_loc }) :: st0
          in
          match walk ctx tracked body with
          | None -> None (* diverging path: the release obligation is waived *)
          | Some st' ->
              on_scope_end ctx st' name;
              Some (List.remove_assoc name st')))
  | (Ppat_any | Ppat_construct _), Some kind ->
      add ctx "L1" vb.pvb_expr.pexp_loc
        (Printf.sprintf
           "%s handle minted and immediately discarded by the binding pattern; bind it \
            and release it"
           (kind_name kind));
      walk_rest_of_let ctx st vb body
  | _ -> (
      (* Aliasing a tracked handle transfers ownership out of the walk. *)
      match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
      | Ppat_var _, Pexp_ident { txt = Longident.Lident src; loc } when List.mem_assoc src st
        ->
          let st = on_escape ctx st src loc in
          walk ctx st body
      | _ -> walk_rest_of_let ctx st vb body)

and walk_rest_of_let ctx st vb body =
  match walk ctx st vb.pvb_expr with
  | None -> None
  | Some st ->
      let st = shadow ctx st vb.pvb_pat in
      walk ctx st body

(* Pattern variables shadowing a tracked name make the outer handle
   unreachable by that name; give up on it (escape) rather than reason
   about scoping. Rare in practice — the walker never renames. *)
and shadow ctx st (pat : pattern) =
  let names = ref [] in
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
        names := txt :: !names;
        (match p.ppat_desc with Ppat_alias (sub, _) -> go sub | _ -> ())
    | Ppat_tuple l -> List.iter go l
    | Ppat_construct (_, Some (_, sub)) | Ppat_variant (_, Some sub) -> go sub
    | Ppat_record (fields, _) -> List.iter (fun (_, sub) -> go sub) fields
    | Ppat_array l -> List.iter go l
    | Ppat_or (a, b) -> go a; go b
    | Ppat_constraint (sub, _) | Ppat_open (_, sub) | Ppat_lazy sub | Ppat_exception sub ->
        go sub
    | _ -> ()
  in
  go pat;
  List.fold_left
    (fun st n ->
      if List.mem_assoc n st then on_escape ctx st n pat.ppat_loc else st)
    st !names

and walk_apply ctx st e fn args =
  if is_diverging_apply fn then (
    ignore (walk_args ctx st args);
    None)
  else
    let name = fn_name fn in
    match release_kind name with
    | Some rk -> (
        (* putN-style convention: the handle is the last positional
           argument (release_route t r / Arena.free pool h). *)
        let rec split_last acc = function
          | [] -> (List.rev acc, None)
          | [ last ] -> (List.rev acc, Some last)
          | x :: rest -> split_last (x :: acc) rest
        in
        let init, last = split_last [] args in
        match last with
        | Some (_, ({ pexp_desc = Pexp_ident { txt = Longident.Lident h; loc }; _ } : expression))
          when List.mem_assoc h st -> (
            match walk_args ctx st init with
            | None -> None
            | Some st -> Some (on_release ctx st h ~releaser:(Some rk) loc))
        | _ -> walk_args ctx st args)
    | None ->
        if is_borrow name then
          (* Borrowing: tracked idents among the arguments are reads, not
             transfers. Nested sub-expressions walk as usual. *)
          List.fold_left
            (fun st (_, (a : expression)) ->
              match st with
              | None -> None
              | Some st -> (
                  match a.pexp_desc with
                  | Pexp_ident { txt = Longident.Lident h; loc } when List.mem_assoc h st ->
                      Some (on_use ctx st h loc)
                  | _ -> walk ctx st a))
            (Some st) args
        else (
          (* Unknown callee: arguments escape (ownership may transfer),
             including handles captured by lambda arguments. *)
          ignore e;
          match walk ctx st fn with
          | None -> None
          | Some st -> Some (escape_all ctx st (List.map snd args)))

and walk_args ctx st args =
  List.fold_left
    (fun st (_, a) -> match st with None -> None | Some st -> walk ctx st a)
    (Some st) args

and walk_loop ctx st pre body =
  match walk_args ctx st (List.map (fun e -> (Asttypes.Nolabel, e)) pre) with
  | None -> None
  | Some st0 -> (
      match walk ctx st0 body with
      | None -> Some st0 (* body always diverges; loop may still run 0 times *)
      | Some st1 ->
          (* A release of an outer handle inside a loop body runs once per
             iteration: a second iteration is a double release. *)
          List.iter2
            (fun (n, (e0 : entry)) (_, (e1 : entry)) ->
              match (e0.e_status, e1.e_status) with
              | Live, (Released | MaybeReleased) ->
                  add ctx "L2" body.pexp_loc
                    (Printf.sprintf
                       "%s handle '%s' released inside a loop body that may run more than \
                        once"
                       (kind_name e1.e_kind) n)
              | _ -> ())
            st0 st1;
          Some (join_state st0 st1))

(* Escape every tracked ident mentioned in [exprs]; nested lambdas are
   additionally analyzed as fresh scopes so handles allocated inside
   callbacks stay checked. *)
and escape_all ctx st exprs =
  let st = ref st in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; loc } when List.mem_assoc n !st ->
        st := on_escape ctx !st n loc
    | Pexp_fun (_, _, _, body) ->
        scan_scope ctx ~file:ctx.file body
    | Pexp_function cases ->
        List.iter (fun c -> scan_scope ctx ~file:ctx.file c.pc_rhs) cases
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  List.iter (fun e -> it.expr it e) exprs;
  !st

and sub_expressions e =
  let subs = ref [] in
  let expr (_ : Ast_iterator.iterator) (sub : expression) = subs := sub :: !subs in
  let it = { Ast_iterator.default_iterator with expr } in
  (* One level only: collect direct children, escape_all recurses. *)
  Ast_iterator.default_iterator.expr it e;
  List.rev !subs

(* Analyze one function scope: peel parameters, then walk the body with an
   empty tracking state. *)
and scan_scope ctx ~file:_ (e : expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> scan_scope ctx ~file:ctx.file body
  | Pexp_function cases ->
      List.iter (fun c -> scan_scope ctx ~file:ctx.file c.pc_rhs) cases
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
      scan_scope ctx ~file:ctx.file body
  | _ -> ignore (walk ctx [] e)

(* -- entry points ----------------------------------------------------------- *)

let scan_structure ~file structure =
  let ctx = { file; out = [] } in
  List.iter
    (fun (item : structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter (fun vb -> scan_scope ctx ~file vb.pvb_expr) vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
          List.iter
            (fun (si : structure_item) ->
              match si.pstr_desc with
              | Pstr_value (_, vbs) ->
                  List.iter (fun vb -> scan_scope ctx ~file vb.pvb_expr) vbs
              | _ -> ())
            sub
      | _ -> ())
    structure;
  List.rev ctx.out

(* Test / tooling convenience: lint a source string directly. *)
let scan_src ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  scan_structure ~file (Parse.implementation lexbuf)
