(* E-rules: shard-safety proof over an inferred interprocedural effect
   map (DESIGN.md §15).

   The multicore port (ROADMAP: sharded event loop across OCaml 5
   domains) needs more than the per-declaration ownership registry: it
   must know which registered regions each event handler touches
   *transitively* — a handler that calls three modules deep into the
   congestion allocator writes `Waterfill` state just as surely as one
   that writes it inline. This pass builds that proof:

     1. every toplevel function in `lib/` is a node of a call graph; a
        reference to a known function is a call edge (so a function
        passed as an argument contributes its effects at the call site
        that names it — first-order closure flow without a points-to
        analysis);
     2. a node's *direct* effects are the registry regions its body
        reads or writes (`:=`, `<-` on mutable fields, and the stdlib
        mutator table: Hashtbl / Util.Itbl / Array / Bytes / Buffer /
        Queue / Atomic / …), with lambda bodies walked inline;
     3. a worklist fixpoint propagates effects over the edges to a
        transitive summary per function.

   An application whose target cannot be named is *widened*: the node
   goes to ⊤ ("may touch anything") and ⊤ propagates to callers like
   any other effect. Two deliberate exceptions keep ⊤ rare enough to
   mean something: applying one of the function's own parameters
   (recorded as `param_ho`) does not widen — whatever was passed in
   was named, and therefore edged, at some call site — and neither do
   calls into external modules (Stdlib, List, …), which are
   effect-neutral on registry regions except through the lambdas the
   walk inlines anyway. Reachability from the dispatch roots follows
   known call edges only; ⊤ does not expand it (a widened node's
   *effects* are unbounded, but inventing edges out of it would make
   every rule fire everywhere and the report useless).

   Rules, judged against reachability from the event-dispatch roots
   (the `Sim.Engine`, `Sim.R2c2_sim` and `R2c2.Stack` toplevels):

   E1  a reachable function writes a `shard_owned` region without
       keying the write by the handler's own node argument (the
       registry entry's `(key …)` field names which argument);
   E2  a `shared_readonly` region is written outside its owning module
       — unless the write sits in a `(* lint: init *)` …
       `(* lint: init end *)` span, the sanctioned setup window;
   E3  a reachable function folds a float reduction (`+.`/`*.`) over a
       mutable region: summation order would differ across shards, the
       numeric-determinism hazard for the pinned torus digest.

   The pass also emits the *cut-set* (SHARD_REPORT.json): every region
   reachable code can write, classified `witnessed` (a concrete write
   path names it, with the writing functions) or `widened` (in the set
   only because some reachable node went to ⊤). The multicore PR must
   wrap exactly these regions in per-domain queues or messages; CI
   ratchets the set so it can only shrink. *)

module SSet = Set.Make (String)
module SMap = Map.Make (String)
module ISet = Set.Make (Int)

(* -- generic fixpoint solver ---------------------------------------------- *)

(* Kept abstract over int node/region ids so the qcheck differential can
   drive it with generated graphs (cycles, diamonds, widening) against a
   naive whole-program reference evaluator. *)

type direct = { d_reads : ISet.t; d_writes : ISet.t; d_widened : bool }
type summary = { e_reads : ISet.t; e_writes : ISet.t; e_widened : bool }

let of_direct d = { e_reads = d.d_reads; e_writes = d.d_writes; e_widened = d.d_widened }

(* effects(F) = direct(F) ∪ ⋃ effects(callee); classic reverse-edge
   worklist, O(edges × regions) in practice. *)
let solve directs calls =
  let n = Array.length directs in
  let summ = Array.map of_direct directs in
  let callers = Array.make n [] in
  Array.iteri
    (fun f gs ->
      List.iter (fun g -> if g >= 0 && g < n then callers.(g) <- f :: callers.(g)) gs)
    calls;
  let queue = Queue.create () in
  let queued = Array.make n true in
  for i = 0 to n - 1 do
    Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    queued.(f) <- false;
    let s =
      List.fold_left
        (fun acc g ->
          if g < 0 || g >= n then acc
          else
            let sg = summ.(g) in
            {
              e_reads = ISet.union acc.e_reads sg.e_reads;
              e_writes = ISet.union acc.e_writes sg.e_writes;
              e_widened = acc.e_widened || sg.e_widened;
            })
        (of_direct directs.(f))
        calls.(f)
    in
    let cur = summ.(f) in
    if
      not
        (ISet.equal s.e_reads cur.e_reads
        && ISet.equal s.e_writes cur.e_writes
        && s.e_widened = cur.e_widened)
    then begin
      summ.(f) <- s;
      List.iter
        (fun c ->
          if not queued.(c) then begin
            queued.(c) <- true;
            Queue.add c queue
          end)
        callers.(f)
    end
  done;
  summ

let reachable calls roots =
  let n = Array.length calls in
  let seen = Array.make n false in
  let rec go f =
    if f >= 0 && f < n && not seen.(f) then begin
      seen.(f) <- true;
      List.iter go calls.(f)
    end
  in
  List.iter go roots;
  seen

(* -- name resolution ------------------------------------------------------- *)

let default_roots = [ "Sim.Engine."; "Sim.R2c2_sim."; "R2c2.Stack." ]
let contains s sub = Lint_core.find_substring s sub <> None

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let owner_of item =
  match String.rindex_opt item '.' with Some i -> String.sub item 0 i | None -> item

(* `module U = Util.Units` makes `U.kbps` spell `Util.Units.kbps`; the
   alias map rewrites the first path component before scope lookup. *)
let rewrite_alias aliases raw =
  match String.index_opt raw '.' with
  | Some i -> (
      match SMap.find_opt (String.sub raw 0 i) aliases with
      | Some full -> full ^ String.sub raw i (String.length raw - i)
      | None -> raw)
  | None -> raw

(* Resolve a normalized reference against a set of fully-qualified
   names, trying each enclosing scope prefix the way OCaml's scoping
   does (innermost submodule first, the unit, then fully qualified). *)
let resolve ~aliases ~scopes set raw =
  let raw = rewrite_alias aliases raw in
  List.find_map
    (fun p ->
      let c = p ^ raw in
      if SSet.mem c set then Some c else None)
    scopes

(* -- typed-tree extraction ------------------------------------------------- *)

(* Written-container and key-argument positions, keyed on the stripped
   full path of the callee (`a.(i) <- v` reaches the typed tree as
   `Array.set`, so the sugar is covered). *)
let mutators =
  [
    (":=", (0, None)); ("incr", (0, None)); ("decr", (0, None));
    ("Hashtbl.replace", (0, Some 1)); ("Hashtbl.add", (0, Some 1));
    ("Hashtbl.remove", (0, Some 1)); ("Hashtbl.reset", (0, None));
    ("Hashtbl.clear", (0, None)); ("Hashtbl.filter_map_inplace", (1, None));
    ("Util.Itbl.replace", (0, Some 1)); ("Util.Itbl.add", (0, Some 1));
    ("Util.Itbl.remove", (0, Some 1)); ("Util.Itbl.reset", (0, None));
    ("Util.Itbl.clear", (0, None)); ("Util.Itbl.filter_map_inplace", (1, None));
    ("Array.set", (0, Some 1)); ("Array.unsafe_set", (0, Some 1));
    ("Array.fill", (0, None)); ("Array.blit", (2, None));
    ("Bytes.set", (0, Some 1)); ("Bytes.unsafe_set", (0, Some 1));
    ("Bytes.fill", (0, None)); ("Bytes.blit", (2, None));
    ("Bytes.blit_string", (2, None));
    ("Buffer.add_char", (0, None)); ("Buffer.add_string", (0, None));
    ("Buffer.add_bytes", (0, None)); ("Buffer.add_subbytes", (0, None));
    ("Buffer.add_substring", (0, None)); ("Buffer.add_buffer", (0, None));
    ("Buffer.clear", (0, None)); ("Buffer.reset", (0, None));
    ("Buffer.truncate", (0, None));
    ("Queue.push", (1, None)); ("Queue.add", (1, None)); ("Queue.pop", (0, None));
    ("Queue.take", (0, None)); ("Queue.clear", (0, None));
    ("Queue.transfer", (1, None));
    ("Atomic.set", (0, None)); ("Atomic.exchange", (0, None));
    ("Atomic.incr", (0, None)); ("Atomic.decr", (0, None));
    ("Atomic.fetch_and_add", (0, None)); ("Atomic.compare_and_set", (0, None));
  ]

(* Read accessors a write can reach its container through:
   `(Hashtbl.find shards node).q <- v` writes the region behind
   `shards`, keyed by `node`. *)
let accessors =
  [
    ("!", (0, None));
    ("Hashtbl.find", (0, Some 1)); ("Hashtbl.find_opt", (0, Some 1));
    ("Util.Itbl.find", (0, Some 1)); ("Util.Itbl.find_opt", (0, Some 1));
    ("Array.get", (0, Some 1)); ("Array.unsafe_get", (0, Some 1));
  ]

type wsite = { ws_region : string; ws_line : int; ws_keyed : bool }
type fsite = { fs_line : int; fs_regions : string list }

type node = {
  nd_name : string;
  nd_file : string;
  mutable nd_line : int;
  mutable nd_reads : SSet.t;
  mutable nd_writes : SSet.t;
  mutable nd_calls : SSet.t;
  mutable nd_widened : bool;
  mutable nd_param_ho : bool;
  mutable nd_wsites : wsite list;
  mutable nd_folds : fsite list;
}

type decl = {
  dc_scopes : string list;
  dc_name : string;
  dc_is_fn : bool;
  dc_file : string;
  dc_line : int;
  dc_expr : Typedtree.expression;
}

let rec is_fn_expr (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> true
  | Texp_let (_, _, body) -> is_fn_expr body
  | _ -> false

(* Eta-reduced aliases (`let get16 = Bytes.get_uint16_be`) and partial
   applications (`let warn = log Warning`) are functions too, even
   though no `fun` appears: judge by the binding's type, or every
   application of such an alias would widen its callers to ⊤. *)
let rec is_arrow ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (t, _) -> is_arrow t
  | _ -> false

let rec pattern_vars acc (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> SSet.add (Ident.name id) acc
  | Tpat_alias (sub, id, _) -> pattern_vars (SSet.add (Ident.name id) acc) sub
  | Tpat_tuple ps | Tpat_construct (_, _, ps, _) | Tpat_array ps ->
      List.fold_left pattern_vars acc ps
  | Tpat_variant (_, Some p, _) | Tpat_lazy p -> pattern_vars acc p
  | Tpat_record (fields, _) ->
      List.fold_left (fun acc (_, _, p) -> pattern_vars acc p) acc fields
  | Tpat_or (a, b, _) -> pattern_vars (pattern_vars acc a) b
  | Tpat_any | Tpat_constant _ | Tpat_variant (_, None, _) -> acc

(* The binders of the function's outer `fun`-spine — the arguments E1's
   keyed-write check may match against. A multi-case `function` stops
   the spine but still contributes its case binders (`function Some
   node -> …` binds [node]). *)
let rec spine_params acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } -> (
      let acc =
        List.fold_left (fun acc c -> pattern_vars acc c.Typedtree.c_lhs) acc cases
      in
      match cases with [ { c_rhs; _ } ] -> spine_params acc c_rhs | _ -> acc)
  | Texp_let (_, _, body) -> spine_params acc body
  | _ -> acc

(* Every toplevel binding of a unit, recursing into literal submodules.
   Function bindings get their own node; everything else (non-function
   bindings, `let () = …`, toplevel evals) pools into the unit's
   `(init)` pseudo-node — module-initialization effects matter to E2
   but are not dispatch roots. Module aliases accumulate per unit. *)
let collect_unit (unit_ : Lint_typed.unit_info) =
  let decls = ref [] and aliases = ref SMap.empty in
  let init_name = unit_.u_name ^ ".(init)" in
  let rec go scopes (str : Typedtree.structure) =
    let prefix = List.hd scopes in
    List.iter
      (fun (item : Typedtree.structure_item) ->
        let line = item.str_loc.Location.loc_start.pos_lnum in
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let mk name is_fn =
                  decls :=
                    {
                      dc_scopes = scopes;
                      dc_name = name;
                      dc_is_fn = is_fn;
                      dc_file = unit_.u_file;
                      dc_line = vb.vb_loc.Location.loc_start.pos_lnum;
                      dc_expr = vb.vb_expr;
                    }
                    :: !decls
                in
                match Lint_typed.binding_var vb.vb_pat with
                | Some { txt; _ }
                  when is_fn_expr vb.vb_expr || is_arrow vb.vb_pat.pat_type ->
                    mk (prefix ^ txt) true
                | _ -> mk init_name false)
              vbs
        | Tstr_eval (e, _) ->
            decls :=
              {
                dc_scopes = scopes;
                dc_name = init_name;
                dc_is_fn = false;
                dc_file = unit_.u_file;
                dc_line = line;
                dc_expr = e;
              }
              :: !decls
        | Tstr_module mb -> go_mb scopes mb
        | Tstr_recmodule mbs -> List.iter (go_mb scopes) mbs
        | _ -> ())
      str.str_items
  and go_mb scopes (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec peel (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> `Str s
      | Tmod_constraint (inner, _, _, _) -> peel inner
      | Tmod_ident (p, _) -> `Alias (Lint_typed.normalize_path_name (Path.name p))
      | _ -> `Other
    in
    match peel mb.mb_expr with
    | `Str s -> go ((List.hd scopes ^ name ^ ".") :: scopes) s
    | `Alias full -> aliases := SMap.add name full !aliases
    | `Other -> ()
  in
  go [ unit_.u_name ^ "."; "" ] unit_.u_str;
  (List.rev !decls, !aliases)

(* Walk one binding's body, accumulating direct effects into [node].
   [known] / [regions] are the full-name universes; [region_key] maps a
   shard_owned region to its declared `(key …)` argument name. *)
let walk_decl ~known ~regions ~region_key ~aliases node dc =
  let scopes = dc.dc_scopes in
  let norm p = Lint_typed.normalize_path_name (Path.name p) in
  let resolve_fn raw = resolve ~aliases ~scopes known raw in
  let resolve_region raw = resolve ~aliases ~scopes regions raw in
  let params = if dc.dc_is_fn then spine_params SSet.empty dc.dc_expr else SSet.empty in
  (* let-bound names whose definiens is itself a function or a named
     reference: applying them is not a widening event, because whatever
     they denote was already edged (or is external) where it was named. *)
  let safe = ref SSet.empty in
  let idents_of e =
    let out = ref [] in
    let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
      (match e.exp_desc with Texp_ident (p, _, _) -> out := p :: !out | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it e;
    List.rev !out
  in
  (* Does [e] mention one of the function's own arguments whose name
     matches the region's declared key? ("node" matches `node`,
     `node_id`, `dst_node`, …) *)
  let key_matches key e =
    let k = String.lowercase_ascii key in
    List.exists
      (function
        | Path.Pident id ->
            let n = Ident.name id in
            SSet.mem n params && contains (String.lowercase_ascii n) k
        | _ -> false)
      (idents_of e)
  in
  (* Raw last component, not [norm]: the normalizer splits on '.' and
     would collapse the operator `+.` into integer `+`. *)
  let float_op e =
    List.exists
      (fun p ->
        let n = Path.last p in
        n = "+." || n = "*.")
      (idents_of e)
  in
  let regions_of e =
    List.fold_left
      (fun acc p -> match resolve_region (norm p) with Some r -> SSet.add r acc | None -> acc)
      SSet.empty (idents_of e)
  in
  (* The region a write's container expression bottoms out in, plus the
     key expressions crossed on the way (field projections are
     transparent; indexed reads contribute their key argument). *)
  let rec root_access (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        match resolve_region (norm p) with Some r -> Some (r, []) | None -> None)
    | Texp_field (b, _, _) -> root_access b
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match List.assoc_opt (norm p) accessors with
        | Some (ci, ki) -> (
            let argexprs = List.filter_map snd args in
            match List.nth_opt argexprs ci with
            | Some ce -> (
                match root_access ce with
                | Some (r, keys) ->
                    let keys =
                      match ki with
                      | Some kidx -> (
                          match List.nth_opt argexprs kidx with
                          | Some ke -> ke :: keys
                          | None -> keys)
                      | None -> keys
                    in
                    Some (r, keys)
                | None -> None)
            | None -> None)
        | None -> None)
    | _ -> None
  in
  let add_write ~line r keys =
    let keyed =
      match SMap.find_opt r region_key with
      | Some key -> List.exists (key_matches key) keys
      | None -> false
    in
    node.nd_writes <- SSet.add r node.nd_writes;
    node.nd_wsites <- { ws_region = r; ws_line = line; ws_keyed = keyed } :: node.nd_wsites
  in
  let handle_apply (app : Typedtree.expression) (head : Typedtree.expression) args =
    let argexprs = List.filter_map snd args in
    let line = app.exp_loc.Location.loc_start.pos_lnum in
    match head.exp_desc with
    | Texp_ident (path, _, _) -> (
        let raw = norm path in
        (match List.assoc_opt raw mutators with
        | Some (ci, ki) -> (
            match List.nth_opt argexprs ci with
            | Some ce -> (
                match root_access ce with
                | Some (r, keys) ->
                    let keys =
                      match ki with
                      | Some kidx -> (
                          match List.nth_opt argexprs kidx with
                          | Some ke -> ke :: keys
                          | None -> keys)
                      | None -> keys
                    in
                    add_write ~line r keys
                | None -> ())
            | None -> ())
        | None -> ());
        (if contains (String.lowercase_ascii (last_component raw)) "fold" then
           let touched =
             List.fold_left (fun acc e -> SSet.union acc (regions_of e)) SSet.empty argexprs
           in
           if (not (SSet.is_empty touched)) && List.exists float_op argexprs then
             node.nd_folds <-
               { fs_line = line; fs_regions = SSet.elements touched } :: node.nd_folds);
        match path with
        | Path.Pident id ->
            let name = Ident.name id in
            if SSet.mem name params then node.nd_param_ho <- true
            else if SSet.mem name !safe then ()
            else if resolve_fn raw <> None then ()
            else node.nd_widened <- true
        | _ ->
            (* Dotted head: a known function's edge was recorded at the
               ident; anything else is an external call, neutral on
               registry regions. *)
            ())
    | Texp_function _ -> () (* beta redex; the body is walked inline *)
    | _ ->
        (* `t.dispatch …`, applying an apply's result, …: the target is
           unnameable — this is the widening event. *)
        node.nd_widened <- true
  in
  let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        let raw = norm p in
        (match resolve_fn raw with
        | Some f -> node.nd_calls <- SSet.add f node.nd_calls
        | None -> ());
        (match resolve_region raw with
        | Some r -> node.nd_reads <- SSet.add r node.nd_reads
        | None -> ())
    | Texp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match Lint_typed.binding_var vb.vb_pat with
            | Some { txt; _ } -> (
                match vb.vb_expr.exp_desc with
                | Texp_function _ | Texp_ident _ -> safe := SSet.add txt !safe
                | _ -> ())
            | None -> ())
          vbs
    | Texp_setfield (base, _, _, _) -> (
        match root_access base with
        | Some (r, keys) -> add_write ~line:e.exp_loc.Location.loc_start.pos_lnum r keys
        | None -> ())
    | Texp_apply (head, args) -> handle_apply e head args
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it dc.dc_expr

(* -- the E pass ------------------------------------------------------------ *)

type fn_effect = {
  f_name : string;
  f_reads : string list;  (* transitive *)
  f_writes : string list;
  f_widened : bool;
  f_param_ho : bool;
  f_reachable : bool;
}

type cut_entry = {
  c_item : string;
  c_class : string;
  c_key : string option;
  c_via : string;  (* "witnessed" | "widened" *)
  c_writers : string list;
}

type result = {
  eff_violations : Lint_core.violation list;
  fn_effects : fn_effect list;  (* effectful / widened / param_ho nodes only *)
  cut_set : cut_entry list;
  analyzed_fns : int;
  reachable_fns : int;
  eff_roots : string list;
}

let analyze ?(roots = default_roots) ?init_spans ~(registry : Lint_typed.registry) units =
  (* Region universe and per-region class/key, first entry winning on
     the duplicates M1 already flags. *)
  let region_class = ref SMap.empty and region_key = ref SMap.empty in
  List.iter
    (fun (e : Lint_typed.reg_entry) ->
      if not (SMap.mem e.r_item !region_class) then begin
        region_class := SMap.add e.r_item e.r_class !region_class;
        match e.r_key with
        | Some k -> region_key := SMap.add e.r_item k !region_key
        | None -> ()
      end)
    registry.entries;
  let regions = SMap.fold (fun k _ acc -> SSet.add k acc) !region_class SSet.empty in
  (* Pass 1: every unit's declarations and aliases; the function-name
     universe. *)
  let per_unit = List.map (fun u -> (u, collect_unit u)) units in
  let known =
    List.fold_left
      (fun acc (_, (decls, _)) ->
        List.fold_left
          (fun acc dc -> if dc.dc_is_fn then SSet.add dc.dc_name acc else acc)
          acc decls)
      SSet.empty per_unit
  in
  (* Pass 2: direct effects per node. Shadowed re-definitions and the
     per-unit init bindings merge into one node. *)
  let nodes = Hashtbl.create 256 in
  let node_of dc =
    match Hashtbl.find_opt nodes dc.dc_name with
    | Some n ->
        if dc.dc_line < n.nd_line then n.nd_line <- dc.dc_line;
        n
    | None ->
        let n =
          {
            nd_name = dc.dc_name;
            nd_file = dc.dc_file;
            nd_line = dc.dc_line;
            nd_reads = SSet.empty;
            nd_writes = SSet.empty;
            nd_calls = SSet.empty;
            nd_widened = false;
            nd_param_ho = false;
            nd_wsites = [];
            nd_folds = [];
          }
        in
        Hashtbl.add nodes dc.dc_name n;
        n
  in
  List.iter
    (fun (_, (decls, aliases)) ->
      List.iter
        (fun dc ->
          walk_decl ~known ~regions ~region_key:!region_key ~aliases (node_of dc) dc)
        decls)
    per_unit;
  let names =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) nodes [])
  in
  let node_arr = Array.of_list (List.map (Hashtbl.find nodes) names) in
  let n = Array.length node_arr in
  let idx_of = Hashtbl.create n in
  Array.iteri (fun i nd -> Hashtbl.replace idx_of nd.nd_name i) node_arr;
  let region_names = SSet.elements regions in
  let ridx = Hashtbl.create 16 in
  List.iteri (fun i r -> Hashtbl.replace ridx r i) region_names;
  let rset s =
    SSet.fold (fun r acc -> ISet.add (Hashtbl.find ridx r) acc) s ISet.empty
  in
  let directs =
    Array.map
      (fun nd ->
        { d_reads = rset nd.nd_reads; d_writes = rset nd.nd_writes; d_widened = nd.nd_widened })
      node_arr
  in
  let calls =
    Array.map
      (fun nd ->
        SSet.fold
          (fun c acc -> match Hashtbl.find_opt idx_of c with Some i -> i :: acc | None -> acc)
          nd.nd_calls [])
      node_arr
  in
  let summaries = solve directs calls in
  let root_idx =
    List.concat_map
      (fun prefix ->
        List.filter_map
          (fun nd ->
            if Lint_typed.starts_with ~prefix nd.nd_name then
              Hashtbl.find_opt idx_of nd.nd_name
            else None)
          (Array.to_list node_arr))
      roots
  in
  let reach = reachable calls root_idx in
  (* init spans, for E2's setup-window exemption: explicit in tests,
     read from the unit sources on disk otherwise. *)
  let spans =
    match init_spans with
    | Some s -> s
    | None ->
        List.filter_map
          (fun (u : Lint_typed.unit_info) ->
            if Sys.file_exists u.u_file then
              Some (u.u_file, Lint_core.init_spans (Lint_core.read_file u.u_file))
            else None)
          units
  in
  let in_init_span file line =
    match List.assoc_opt file spans with
    | Some sp -> List.exists (fun (a, b) -> line >= a && line <= b) sp
    | None -> false
  in
  let violations = ref [] in
  let add file line rule message =
    violations := { Lint_core.file; line; rule; message } :: !violations
  in
  Array.iteri
    (fun i nd ->
      let class_of r = SMap.find_opt r !region_class in
      (* E1: unkeyed shard_owned writes on a dispatch-reachable path. *)
      if reach.(i) then
        List.iter
          (fun ws ->
            if class_of ws.ws_region = Some "shard_owned" && not ws.ws_keyed then
              add nd.nd_file ws.ws_line "E1"
                (match SMap.find_opt ws.ws_region !region_key with
                | Some key ->
                    Printf.sprintf
                      "'%s' is reachable from the dispatch roots and writes shard_owned \
                       '%s' without keying by its '%s' argument — under sharding this is \
                       a cross-shard write"
                      nd.nd_name ws.ws_region key
                | None ->
                    Printf.sprintf
                      "'%s' is reachable from the dispatch roots and writes shard_owned \
                       '%s', which declares no '(key …)' in the registry; name the \
                       sharding argument and key the write"
                      nd.nd_name ws.ws_region))
          nd.nd_wsites;
      (* E2: foreign writes to shared_readonly state, init spans exempt. *)
      List.iter
        (fun ws ->
          if class_of ws.ws_region = Some "shared_readonly" then
            let owner = owner_of ws.ws_region in
            if
              (not (Lint_typed.starts_with ~prefix:(owner ^ ".") nd.nd_name))
              && not (in_init_span nd.nd_file ws.ws_line)
            then
              add nd.nd_file ws.ws_line "E2"
                (Printf.sprintf
                   "'%s' writes shared_readonly '%s' from outside its owning module \
                    '%s'; shared_readonly state is frozen once the event loop starts — \
                    move the write into the owner or a '(* lint: init *)' span"
                   nd.nd_name ws.ws_region owner))
        nd.nd_wsites;
      (* E3: order-sensitive float folds over mutable regions on a
         reachable path. *)
      if reach.(i) then
        List.iter
          (fun fs ->
            add nd.nd_file fs.fs_line "E3"
              (Printf.sprintf
                 "'%s' is reachable from the dispatch roots and folds a float reduction \
                  (+. / *.) over mutable region%s %s; iteration order differs across \
                  shards — accumulate per shard and combine in a fixed order"
                 nd.nd_name
                 (if List.length fs.fs_regions > 1 then "s" else "")
                 (String.concat ", " fs.fs_regions)))
          nd.nd_folds)
    node_arr;
  (* Cut-set: regions reachable code can write. Witnessed regions carry
     their concrete writers; if any reachable node widened to ⊤, every
     remaining region enters via "widened" with the ⊤ nodes as writers. *)
  let witnessed = Hashtbl.create 16 in
  Array.iteri
    (fun i nd ->
      if reach.(i) then
        SSet.iter
          (fun r ->
            let cur = try Hashtbl.find witnessed r with Not_found -> SSet.empty in
            Hashtbl.replace witnessed r (SSet.add nd.nd_name cur))
          nd.nd_writes)
    node_arr;
  let widened_nodes =
    List.filteri (fun i _ -> reach.(i) && directs.(i).d_widened) (Array.to_list node_arr)
    |> List.map (fun nd -> nd.nd_name)
  in
  let cut_set =
    List.filter_map
      (fun r ->
        let cls = match SMap.find_opt r !region_class with Some c -> c | None -> "?" in
        let key = SMap.find_opt r !region_key in
        match Hashtbl.find_opt witnessed r with
        | Some writers ->
            Some
              {
                c_item = r;
                c_class = cls;
                c_key = key;
                c_via = "witnessed";
                c_writers = SSet.elements writers;
              }
        | None ->
            if widened_nodes <> [] then
              Some
                {
                  c_item = r;
                  c_class = cls;
                  c_key = key;
                  c_via = "widened";
                  c_writers = widened_nodes;
                }
            else None)
      region_names
  in
  let fn_effects =
    Array.to_list node_arr
    |> List.mapi (fun i nd -> (i, nd))
    |> List.filter_map (fun (i, nd) ->
           let s = summaries.(i) in
           if ISet.is_empty s.e_reads && ISet.is_empty s.e_writes && (not s.e_widened)
              && not nd.nd_param_ho
           then None
           else
             let name_of_set iset =
               ISet.fold (fun ri acc -> List.nth region_names ri :: acc) iset []
               |> List.sort String.compare
             in
             Some
               {
                 f_name = nd.nd_name;
                 f_reads = name_of_set s.e_reads;
                 f_writes = name_of_set s.e_writes;
                 f_widened = s.e_widened;
                 f_param_ho = nd.nd_param_ho;
                 f_reachable = reach.(i);
               })
  in
  let reachable_fns = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reach in
  {
    eff_violations = List.rev !violations;
    fn_effects;
    cut_set;
    analyzed_fns = n;
    reachable_fns;
    eff_roots = roots;
  }
