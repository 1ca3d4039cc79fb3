(* M-rules: domain-safety analysis over the typed tree (DESIGN.md §13).

   The ROADMAP's sharded multicore engine needs an exact inventory of
   the simulator's mutable state before anything runs on two domains:
   every `ref`, toplevel table, and record with mutable fields is a
   potential data race once event processing is sharded. The parse pass
   cannot build that inventory — `type t = { mutable n : int }` hides
   behind aliases, `include`, and module boundaries — so this pass
   walks *typed* trees instead: the `.cmt` files dune already produces
   (every module is compiled with `-bin-annot`), read back with
   `Cmt_format.read_cmt`. Types are fully resolved there, so
   `Stats.acc` being secretly an `int ref` is visible no matter how
   many abbreviations sit in between.

   Three rules, all driven from the checked-in ownership registry
   `tools/lint/ownership.sexp`:

   M1  registry hygiene — every entry must name an existing inventory
       item (stale entries rot the shard-readiness map), carry one of
       the three ownership classes, a non-empty justification, and no
       item may appear twice.
   M2  a closure that captures `shard_owned` state must not escape its
       defining module: passing a lambda that touches shard state to a
       foreign module's function is exactly the future `Domain.spawn`
       hazard (the callee may stash the closure and run it on another
       domain). Calls into `Stdlib`, `Util.Tbl` and `Util.Itbl` are
       exempt — their higher-order functions are immediate iterators —
       as are calls to modules defined inside the same compilation unit. `Domain` and
       `Thread` are NOT exempt despite living in the stdlib: handing
       them a closure is the hazard itself.
   M3  unregistered toplevel mutable state is banned outright: every
       item the inventory finds must have a registry entry. This is the
       ratchet — new shared mutables cannot land without a reviewed
       ownership claim.

   Ownership classes (what the multicore PR will enforce at runtime):

     domain_local     one copy per domain (or debug-only state that is
                      never read across domains); no synchronization.
     shard_owned      owned by exactly one shard; other shards may only
                      reach it via message passing. M2 patrols these.
     shared_readonly  written only during setup, read-only once the
                      event loop starts; safe to share frozen.

   Inventory = every toplevel value binding in `lib/` whose type
   *mentions* a mutable type: a builtin mutable head (`ref`, `array`,
   `bytes`, `Hashtbl.t`, `Util.Itbl.t`, `Buffer.t`, `Queue.t`, `Atomic.t`, Bigarray,
   …) or a locally-declared type that is mutable by the transitive
   fixpoint (a record with a `mutable` field, or any type whose
   manifest / fields / constructor arguments reach one). Function
   bindings are values, not state — but a function whose definition
   spine carries `let r = ref … in fun …` captures that ref forever,
   so those count too. Registry items are dotted paths as a reader
   would write them: `Congestion.Waterfill.dbg`. *)

type ownership = Domain_local | Shard_owned | Shared_readonly

let ownership_of_string = function
  | "domain_local" -> Some Domain_local
  | "shard_owned" -> Some Shard_owned
  | "shared_readonly" -> Some Shared_readonly
  | _ -> None

let ownership_name = function
  | Domain_local -> "domain_local"
  | Shard_owned -> "shard_owned"
  | Shared_readonly -> "shared_readonly"

(* -- the ownership registry (mini sexp reader) ---------------------------- *)

(* `tools/lint/ownership.sexp` is a list of entries:

       ((item Congestion.Waterfill.dbg)
        (class domain_local)
        (why "debug counters; each domain keeps its own"))

   Parsed with a ~60-line reader rather than a sexp library (the repo
   deliberately has no ppx / sexplib dependency). A semicolon starts a
   comment to end of line; strings are double-quoted with backslash
   escapes. Syntax errors are internal errors (exit 2) — a broken
   registry must not read as zero violations. *)

type sexp = Atom of string * int | Slist of sexp list * int

let parse_sexps ~file src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 in
  let fail msg = raise (Lint_core.Internal (Printf.sprintf "%s:%d: %s" file !line msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () =
    if !pos < n then begin
      if src.[!pos] = '\n' then incr line;
      incr pos
    end
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        while peek () <> None && peek () <> Some '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let read_string () =
    let start_line = !line in
    advance () (* opening quote *);
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Atom (Buffer.contents buf, start_line)
  in
  let read_atom () =
    let start = !pos and start_line = !line in
    let stop = function
      | None | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') -> true
      | Some _ -> false
    in
    while not (stop (peek ())) do
      advance ()
    done;
    if !pos = start then fail "empty atom";
    Atom (String.sub src start (!pos - start), start_line)
  in
  let rec read_sexp () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
        let start_line = !line in
        advance ();
        let items = ref [] in
        let rec items_loop () =
          skip_ws ();
          match peek () with
          | None -> fail "unterminated '('"
          | Some ')' -> advance ()
          | Some _ ->
              items := read_sexp () :: !items;
              items_loop ()
        in
        items_loop ();
        Slist (List.rev !items, start_line)
    | Some ')' -> fail "unmatched ')'"
    | Some '"' -> read_string ()
    | Some _ -> read_atom ()
  in
  let out = ref [] in
  skip_ws ();
  while peek () <> None do
    out := read_sexp () :: !out;
    skip_ws ()
  done;
  List.rev !out

type reg_entry = {
  r_item : string;
  r_class : string;  (* raw; validated by M1 so a typo is a violation, not a crash *)
  r_why : string;
  r_key : string option;
      (* shard_owned only: the handler argument the sharding key is
         derived from (e.g. `(key node)`); E1 checks writes against it *)
  r_line : int;
}

type registry = { reg_file : string; entries : reg_entry list }

let load_registry_src ~file src =
  let entry_of = function
    | Slist (fields, line) ->
        let field key =
          List.find_map
            (function
              | Slist ([ Atom (k, _); Atom (v, _) ], _) when k = key -> Some v
              | _ -> None)
            fields
        in
        let need key =
          match field key with
          | Some v -> v
          | None ->
              raise
                (Lint_core.Internal
                   (Printf.sprintf "%s:%d: registry entry is missing '(%s …)'" file line key))
        in
        {
          r_item = need "item";
          r_class = need "class";
          r_why = need "why";
          r_key = field "key";
          r_line = line;
        }
    | Atom (_, line) ->
        raise
          (Lint_core.Internal
             (Printf.sprintf "%s:%d: expected a '((item …) (class …) (why …))' entry" file
                line))
  in
  { reg_file = file; entries = List.map entry_of (parse_sexps ~file src) }

let load_registry file = load_registry_src ~file (Lint_core.read_file file)

(* -- compilation units --------------------------------------------------- *)

type unit_info = {
  u_name : string;  (* display name, e.g. "Congestion.Waterfill" *)
  u_file : string;  (* source path for violation locations *)
  u_str : Typedtree.structure;
}

(* "Sim__Net" → "Sim.Net"; dune's wrapped-library mangling undone so
   registry items read like source code. *)
let display_name modname =
  let buf = Buffer.create (String.length modname) in
  let n = String.length modname in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && modname.[!i] = '_' && modname.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf modname.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let load_unit path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      raise
        (Lint_core.Internal
           (Printf.sprintf "cannot read %s: %s" path (Printexc.to_string exn)))
  | cmt -> (
      match (cmt.cmt_annots, cmt.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when not (Filename.check_suffix src "-gen") ->
          (* "-gen" sources are dune's generated wrapped-library alias
             modules (`sim.ml-gen`): pure aliases, nothing to inventory. *)
          Some { u_name = display_name cmt.cmt_modname; u_file = src; u_str = str }
      | _ -> None)

(* Pre-flight diagnosis of --cmt-root, run before any .cmt is parsed so
   lint_main can exit 2 with one line instead of an exception trace.
   dune copies sources next to the .cmt output (`_build/default/lib`
   holds both `foo.ml` and `.objs/byte/…__Foo.cmt`), so freshness is
   judged by pairing each `.ml` with the newest same-named `.cmt` by
   mtime. Returns [Some diagnostic] if the root is missing, empty, or
   stale. *)
let cmt_root_problem ~cmt_root =
  if not (Sys.file_exists cmt_root && Sys.is_directory cmt_root) then
    Some
      (Printf.sprintf "cmt root '%s' does not exist; run 'dune build' first" cmt_root)
  else begin
    let cmts = Lint_core.files_under ~suffix:".cmt" cmt_root in
    if cmts = [] then
      Some
        (Printf.sprintf "no .cmt files under '%s'; run 'dune build' first" cmt_root)
    else begin
      (* Module key: cmt basename minus the wrapped-library `Lib__`
         prefix (everything up to the last "__"), lowercased —
         "sim__R2c2_sim.cmt" and "r2c2_sim.ml" both → "r2c2_sim". *)
      let module_key base =
        let base = Filename.remove_extension base in
        let n = String.length base in
        let cut = ref 0 in
        for i = 1 to n - 1 do
          if base.[i] = '_' && base.[i - 1] = '_' then cut := i + 1
        done;
        String.lowercase_ascii (String.sub base !cut (n - !cut))
      in
      let newest = Hashtbl.create 64 in
      List.iter
        (fun cmt ->
          let key = module_key (Filename.basename cmt) in
          let mt = (Unix.stat cmt).Unix.st_mtime in
          match Hashtbl.find_opt newest key with
          | Some prev when prev >= mt -> ()
          | _ -> Hashtbl.replace newest key mt)
        cmts;
      let mls =
        List.filter
          (fun ml -> not (Filename.check_suffix ml ".pp.ml"))
          (Lint_core.ml_files_under cmt_root)
      in
      let stale_of ml =
        let key = module_key (Filename.basename ml) in
        match Hashtbl.find_opt newest key with
        | None -> Some (Printf.sprintf "no .cmt for '%s'" ml)
        | Some cmt_mt ->
            if (Unix.stat ml).Unix.st_mtime > cmt_mt then
              Some (Printf.sprintf "'%s' is newer than its .cmt" ml)
            else None
      in
      match List.find_map stale_of mls with
      | Some why ->
          Some
            (Printf.sprintf "cmt root '%s' is stale (%s); rerun 'dune build'" cmt_root why)
      | None -> None
    end
  end

let load_units ~cmt_root =
  if not (Sys.file_exists cmt_root && Sys.is_directory cmt_root) then
    raise
      (Lint_core.Internal
         (Printf.sprintf
            "cmt root '%s' does not exist; build the libraries first (dune compiles with \
             -bin-annot by default)"
            cmt_root));
  let units =
    List.filter_map load_unit (Lint_core.files_under ~suffix:".cmt" cmt_root)
  in
  if units = [] then
    raise
      (Lint_core.Internal
         (Printf.sprintf "no .cmt files under '%s'; build the libraries first" cmt_root));
  List.sort (fun a b -> String.compare a.u_name b.u_name) units

(* -- mutable-type fixpoint ------------------------------------------------ *)

(* Normalized head-constructor names that are mutable out of the box. *)
let builtin_mutable =
  [
    "ref"; "array"; "bytes"; "floatarray";
    "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "Atomic.t"; "Mutex.t"; "Condition.t";
    (* [Hashtbl.Make]'s [t] is abstract, so the fixpoint cannot see it *)
    "Util.Itbl.t";
    "Bigarray.Array1.t"; "Bigarray.Array2.t"; "Bigarray.Array3.t"; "Bigarray.Genarray.t";
    "Ephemeron.K1.t"; "Weak.t"; "Dynarray.t";
  ]

let strip_stdlib p =
  if String.length p > 7 && String.sub p 0 7 = "Stdlib." then
    String.sub p 7 (String.length p - 7)
  else p

(* Path display → registry-style dotted name: undo `__` mangling, strip
   the `Stdlib.` root, collapse the double dot an alias root like
   `Sim__` leaves behind. *)
let normalize_path_name name =
  let dotted = display_name name in
  let parts = List.filter (fun s -> s <> "") (String.split_on_char '.' dotted) in
  strip_stdlib (String.concat "." parts)

module SSet = Set.Make (String)

(* Does [ty] mention a mutable type? Heads are compared by normalized
   path name against the builtins and the fixpoint set; arrows stop the
   walk (a function returning a ref is a factory, not shared state);
   the depth cap stands in for a visited set on recursive types.

   [scopes] is the chain of enclosing module prefixes at the point of
   reference, innermost first, each ending in '.', with "" last. The
   fixpoint set stores fully-qualified declaration names, but a typed
   reference to a unit-local type is a bare `Pident` ("debug_counters",
   not "Congestion.Waterfill.debug_counters"), and a reference to a
   sibling submodule's type is qualified only up to the unit ("Inc.t");
   qualifying the head with each enclosing prefix in turn resolves both
   spellings the way the scoping rules do. *)
let rec ty_mentions muts scopes depth (ty : Types.type_expr) =
  depth < 40
  &&
  match Types.get_desc ty with
  | Tconstr (path, args, _) ->
      let n = normalize_path_name (Path.name path) in
      List.mem n builtin_mutable
      || List.exists (fun prefix -> SSet.mem (prefix ^ n) muts) scopes
      || List.exists (ty_mentions muts scopes (depth + 1)) args
  | Ttuple l -> List.exists (ty_mentions muts scopes (depth + 1)) l
  | Tpoly (t, _) -> ty_mentions muts scopes (depth + 1) t
  | Tarrow _ -> false
  | _ -> false

let decl_is_mutable muts scopes (d : Typedtree.type_declaration) =
  let core ct = ty_mentions muts scopes 0 ct.Typedtree.ctyp_type in
  let label (ld : Typedtree.label_declaration) =
    ld.ld_mutable = Asttypes.Mutable || core ld.ld_type
  in
  (match d.typ_kind with
  | Ttype_record labels -> List.exists label labels
  | Ttype_variant constrs ->
      List.exists
        (fun (cd : Typedtree.constructor_declaration) ->
          match cd.cd_args with
          | Cstr_tuple cts -> List.exists core cts
          | Cstr_record lds -> List.exists label lds)
        constrs
  | Ttype_abstract | Ttype_open -> false)
  || match d.typ_manifest with Some ct -> core ct | None -> false

(* All type declarations of a unit, with their full dotted names and the
   scope chain at the declaration site, recursing into literal submodule
   structures. *)
let collect_type_decls unit_ =
  let out = ref [] in
  let rec go scopes (str : Typedtree.structure) =
    let prefix = List.hd scopes in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_type (_, decls) ->
            List.iter
              (fun (d : Typedtree.type_declaration) ->
                out := (prefix ^ Ident.name d.typ_id, scopes, d) :: !out)
              decls
        | Tstr_module mb -> go_module scopes mb
        | Tstr_recmodule mbs -> List.iter (go_module scopes) mbs
        | _ -> ())
      str.str_items
  and go_module scopes (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec strip (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> Some s
      | Tmod_constraint (inner, _, _, _) -> strip inner
      | _ -> None
    in
    match strip mb.mb_expr with
    | Some s -> go ((List.hd scopes ^ name ^ ".") :: scopes) s
    | None -> ()
  in
  go [ unit_.u_name ^ "."; "" ] unit_.u_str;
  !out

let mutable_types units =
  let decls = List.concat_map collect_type_decls units in
  let rec fix muts =
    let muts' =
      List.fold_left
        (fun acc (name, scopes, d) ->
          if decl_is_mutable acc scopes d then SSet.add name acc else acc)
        muts decls
    in
    if SSet.equal muts muts' then muts else fix muts'
  in
  fix SSet.empty

(* -- inventory ------------------------------------------------------------ *)

(* The variable a binding pattern introduces. `let x : t = …` reaches the
   typed tree as `Tpat_alias` (the typechecker rebuilds the constrained
   pattern around an alias), so matching `Tpat_var` alone silently skips
   every annotated binding. *)
let binding_var (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (_, s) -> Some s
  | Tpat_alias (_, _, s) -> Some s
  | _ -> None

type inv_item = {
  i_name : string;  (* registry key: "Congestion.Waterfill.dbg" *)
  i_file : string;
  i_line : int;
  i_why_mutable : string;  (* human-readable: the type, or the captured binding *)
}

(* `let f = let r = ref 0 in fun … -> …`: [f] is a function, but the ref
   on its definition spine lives as long as [f] does — shared mutable
   state wearing a closure. Returns the first such captured binding. *)
let captured_spine muts scopes (e : Typedtree.expression) =
  let rec go (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_let (_, vbs, body) -> (
        let cap =
          List.find_map
            (fun (vb : Typedtree.value_binding) ->
              match binding_var vb.vb_pat with
              | Some { txt; _ } when ty_mentions muts scopes 0 vb.vb_pat.pat_type ->
                  Some txt
              | _ -> None)
            vbs
        in
        match (cap, is_fun body || go body <> None) with
        | Some name, true -> Some name
        | _ -> go body)
    | Texp_function _ -> None
    | _ -> None
  and is_fun (e : Typedtree.expression) =
    match e.exp_desc with Texp_function _ -> true | _ -> false
  in
  go e

let type_to_string ty =
  Format.asprintf "%a" Printtyp.type_expr ty

let inventory_of_unit muts unit_ =
  let out = ref [] in
  let add name (loc : Location.t) why =
    out :=
      {
        i_name = name;
        i_file = unit_.u_file;
        i_line = loc.loc_start.pos_lnum;
        i_why_mutable = why;
      }
      :: !out
  in
  let rec go scopes (str : Typedtree.structure) =
    let prefix = List.hd scopes in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binding_var vb.vb_pat with
                | Some { txt; loc } ->
                    if ty_mentions muts scopes 0 vb.vb_pat.pat_type then
                      add (prefix ^ txt) loc (type_to_string vb.vb_pat.pat_type)
                    else (
                      match captured_spine muts scopes vb.vb_expr with
                      | Some captured ->
                          add (prefix ^ txt) loc
                            (Printf.sprintf "closure capturing mutable binding '%s'"
                               captured)
                      | None -> ())
                | _ -> ())
              vbs
        | Tstr_module mb -> go_module scopes mb
        | Tstr_recmodule mbs -> List.iter (go_module scopes) mbs
        | _ -> ())
      str.str_items
  and go_module scopes (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec strip (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> Some s
      | Tmod_constraint (inner, _, _, _) -> strip inner
      | _ -> None
    in
    match strip mb.mb_expr with
    | Some s -> go ((List.hd scopes ^ name ^ ".") :: scopes) s
    | None -> ()
  in
  go [ unit_.u_name ^ "."; "" ] unit_.u_str;
  List.rev !out

(* -- M2: escaping closures over shard_owned state ------------------------- *)

let path_root p =
  let rec go = function
    | Path.Pident id -> Ident.name id
    | Path.Pdot (p, _) -> go p
    | Path.Papply (p, _) -> go p
    | Path.Pextra_ty (p, _) -> go p
  in
  go p

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Modules literally defined in this unit: closures handed to our own
   submodules stay inside the module boundary M2 patrols. *)
let own_submodules unit_ =
  let out = ref SSet.empty in
  let rec go (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_module mb -> go_mb mb
        | Tstr_recmodule mbs -> List.iter go_mb mbs
        | _ -> ())
      str.str_items
  and go_mb (mb : Typedtree.module_binding) =
    (match mb.mb_name.txt with Some n -> out := SSet.add n !out | None -> ());
    match mb.mb_expr.mod_desc with Tmod_structure s -> go s | _ -> ()
  in
  go unit_.u_str;
  !out

let m2_scan ~shard_items unit_ =
  if SSet.is_empty shard_items then []
  else begin
    let out = ref [] in
    let own = own_submodules unit_ in
    (* Both the fully-qualified spelling and the in-unit local spelling
       of each shard item are capture witnesses. *)
    let local_of item =
      match starts_with ~prefix:(unit_.u_name ^ ".") item with
      | true ->
          Some (String.sub item
                  (String.length unit_.u_name + 1)
                  (String.length item - String.length unit_.u_name - 1))
      | false -> None
    in
    let captured_shard (e : Typedtree.expression) =
      let hits = ref SSet.empty in
      let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (path, _, _) ->
            let qualified = normalize_path_name (Path.name path) in
            let as_local =
              match path with
              | Path.Pident id -> Some (unit_.u_name ^ "." ^ Ident.name id)
              | _ -> None
            in
            SSet.iter
              (fun item ->
                if
                  qualified = item
                  || as_local = Some item
                  || local_of item = Some qualified
                then hits := SSet.add item !hits)
              shard_items
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.expr it e;
      !hits
    in
    (* Foreign callee: a dotted path whose root is neither Stdlib, nor a
       submodule of this unit, nor the sanctioned Util.Tbl / Util.Itbl
       iterators.
       Bare local functions keep the closure in-module. The Stdlib
       exemption is judged on the raw (unstripped) path root — its
       higher-order functions are immediate iterators — except Domain
       and Thread, which hand the closure to another thread of control:
       exactly the escape M2 exists to catch. *)
    let foreign path =
      match path with
      | Path.Pident _ -> false
      | _ ->
          let raw = display_name (Path.name path) in
          let raw_root =
            match String.split_on_char '.' raw with r :: _ -> r | [] -> ""
          in
          let full = strip_stdlib raw in
          let root =
            match String.split_on_char '.' full with r :: _ -> r | [] -> ""
          in
          (raw_root <> "Stdlib" || root = "Domain" || root = "Thread")
          && not (starts_with ~prefix:"Util.Tbl." full || starts_with ~prefix:"Util.Itbl." full)
          && not (SSet.mem root own)
    in
    let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, args) when foreign path ->
          List.iter
            (fun ((_, arg) : _ * Typedtree.expression option) ->
              match arg with
              | Some ({ exp_desc = Texp_function _; _ } as lam) ->
                  SSet.iter
                    (fun item ->
                      out :=
                        {
                          Lint_core.file = unit_.u_file;
                          line = lam.exp_loc.loc_start.pos_lnum;
                          rule = "M2";
                          message =
                            Printf.sprintf
                              "closure capturing shard_owned '%s' escapes into '%s'; a \
                               foreign module may run it on another domain — pass data, \
                               not the closure, or re-register the item"
                              item
                              (normalize_path_name (Path.name path));
                        }
                        :: !out)
                    (captured_shard lam)
              | _ -> ())
            args
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it unit_.u_str;
    List.rev !out
  end

(* -- the M pass ------------------------------------------------------------ *)

type result = {
  inventory : (inv_item * string option) list;
      (* each item with its registered ownership class, if any *)
  typed_violations : Lint_core.violation list;
}

let analyze ~registry units =
  let muts = mutable_types units in
  let inventory = List.concat_map (inventory_of_unit muts) units in
  let violations = ref [] in
  let add file line rule message =
    violations := { Lint_core.file; line; rule; message } :: !violations
  in
  (* M1: registry hygiene. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt seen e.r_item with
      | Some first ->
          add registry.reg_file e.r_line "M1"
            (Printf.sprintf "duplicate registry entry for '%s' (first at line %d)" e.r_item
               first)
      | None -> Hashtbl.replace seen e.r_item e.r_line);
      (match ownership_of_string e.r_class with
      | Some _ -> ()
      | None ->
          add registry.reg_file e.r_line "M1"
            (Printf.sprintf
               "'%s' has unknown ownership class '%s'; expected domain_local, shard_owned \
                or shared_readonly"
               e.r_item e.r_class));
      if String.trim e.r_why = "" then
        add registry.reg_file e.r_line "M1"
          (Printf.sprintf "'%s' has an empty justification" e.r_item);
      (match e.r_key with
      | Some k when e.r_class <> "shard_owned" ->
          add registry.reg_file e.r_line "M1"
            (Printf.sprintf
               "'%s' declares '(key %s)' but is %s; a sharding key is only meaningful on \
                shard_owned entries"
               e.r_item k e.r_class)
      | Some k when String.trim k = "" ->
          add registry.reg_file e.r_line "M1"
            (Printf.sprintf "'%s' has an empty '(key …)' field" e.r_item)
      | _ -> ());
      if not (List.exists (fun i -> i.i_name = e.r_item) inventory) then
        add registry.reg_file e.r_line "M1"
          (Printf.sprintf
             "stale registry entry: no toplevel mutable item '%s' exists (renamed or \
              removed? delete the entry)"
             e.r_item))
    registry.entries;
  (* M3: inventory coverage. *)
  let class_of item =
    List.find_map (fun e -> if e.r_item = item then Some e.r_class else None)
      registry.entries
  in
  List.iter
    (fun i ->
      match class_of i.i_name with
      | Some _ -> ()
      | None ->
          add i.i_file i.i_line "M3"
            (Printf.sprintf
               "unregistered toplevel mutable state '%s' (%s); declare it in %s as \
                domain_local, shard_owned or shared_readonly with a justification"
               i.i_name i.i_why_mutable registry.reg_file))
    inventory;
  (* M2: escaping closures over shard_owned items. *)
  let shard_items =
    List.fold_left
      (fun acc e -> if e.r_class = "shard_owned" then SSet.add e.r_item acc else acc)
      SSet.empty registry.entries
  in
  let m2 = List.concat_map (m2_scan ~shard_items) units in
  let inventory =
    List.sort
      (fun (a, _) (b, _) -> String.compare a.i_name b.i_name)
      (List.map (fun i -> (i, class_of i.i_name)) inventory)
  in
  { inventory; typed_violations = List.rev !violations @ m2 }
