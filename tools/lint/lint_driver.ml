(* Composes the three lint passes and owns reporting (DESIGN.md §13).

   Pass order matters only in that suppression runs last: the parse
   pass (Lint_core) builds one `scanned` record per file — raw
   violations plus the file's `lint: allow` table — then the lifetime
   pass (Lint_life, files under `lib/sim`) and the typed pass
   (Lint_typed, `.cmt` files against the ownership registry) merge
   their violations into the same records, and `finalize` applies the
   allows once over everything. An L2 or M3 can therefore be
   suppressed exactly like a D3: a justified comment on the offending
   line. Typed-pass violations attributed to files outside the linted
   roots (notably `ownership.sexp` itself) bypass suppression — there
   is no source line to carry an allow comment.

   The driver also emits `LINT_REPORT.json`: per-rule counts plus the
   full mutable-state ownership map. That file is the machine-readable
   shard-readiness artifact the multicore PR consumes (which items are
   `shard_owned`, where they live), checked in at the repo root and
   kept current by the promoting `@lint` rule. *)

type config = {
  roots : string list;  (* directories of .ml files; tier by basename *)
  relaxed : string list;  (* roots forced to the Relaxed tier *)
  registry_file : string option;  (* ownership.sexp; None skips the M pass *)
  cmt_root : string option;  (* where to find .cmt files; None skips the M pass *)
}

type full_report = {
  core : Lint_core.report;
  ownership : (Lint_typed.inv_item * string option) list;
      (* inventory item, registered class (None = unregistered, which M3
         already flagged) *)
  effects : Lint_effects.result option;
      (* the interprocedural effect map; None when the typed pass is off *)
  timings : (string * float) list;  (* pass name, wall-clock ms, run order *)
}

let tier_for config root =
  if List.mem root config.relaxed then Lint_core.Relaxed
  else Lint_core.tier_of_root root

let run config =
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (name, (Unix.gettimeofday () -. t0) *. 1000.) :: !timings;
    r
  in
  (* Parse pass: scan every implementation, keeping the records open;
     interfaces get a comment-only scan so their allows (and stale
     allows) are tracked too. *)
  let scanned =
    timed "parse" (fun () ->
        List.concat_map
          (fun root ->
            let tier = tier_for config root in
            List.map
              (fun file ->
                (tier, Lint_core.scan_source ~file ~tier (Lint_core.read_file file)))
              (Lint_core.ml_files_under root)
            @ List.map
                (fun file -> (tier, Lint_core.scan_allows_only ~file (Lint_core.read_file file)))
                (Lint_core.mli_files_under root))
          config.roots)
  in
  (* Lifetime pass: the arena discipline lives under lib/sim. *)
  timed "lifetime" (fun () ->
      List.iter
        (fun ((tier, sc) : Lint_core.tier * Lint_core.scanned) ->
          match (tier, sc.s_structure) with
          | Lint_core.Lib, Some str when Lint_core.in_sim sc.s_file ->
              Lint_core.add_violations sc (Lint_life.scan_structure ~file:sc.s_file str)
          | _ -> ())
        scanned);
  (* Typed passes share one registry + .cmt load. *)
  let loaded =
    timed "load_cmt" (fun () ->
        match (config.registry_file, config.cmt_root) with
        | Some reg_file, Some cmt_root ->
            Some (Lint_typed.load_registry reg_file, Lint_typed.load_units ~cmt_root)
        | _ -> None)
  in
  (* Typed pass: inventory + registry over the .cmt files. *)
  let ownership, typed_violations =
    timed "typed" (fun () ->
        match loaded with
        | Some (registry, units) ->
            let r = Lint_typed.analyze ~registry units in
            (r.inventory, r.typed_violations)
        | None -> ([], []))
  in
  (* Effect pass: the interprocedural shard-safety proof (E-rules). *)
  let effects =
    timed "effects" (fun () ->
        match loaded with
        | Some (registry, units) -> Some (Lint_effects.analyze ~registry units)
        | None -> None)
  in
  let eff_violations =
    match effects with Some e -> e.Lint_effects.eff_violations | None -> []
  in
  (* Attribute typed violations to their scanned files so allows apply;
     whatever has no scanned record (ownership.sexp) stays as-is. *)
  let orphans =
    List.filter
      (fun (v : Lint_core.violation) ->
        match List.find_opt (fun (_, sc) -> sc.Lint_core.s_file = v.file) scanned with
        | Some (_, sc) ->
            Lint_core.add_violations sc [ v ];
            false
        | None -> true)
      (typed_violations @ eff_violations)
  in
  let core =
    List.fold_left
      (fun acc (_, sc) -> Lint_core.merge acc (Lint_core.finalize sc))
      Lint_core.empty scanned
  in
  let core = { core with Lint_core.violations = core.Lint_core.violations @ orphans } in
  { core; ownership; effects; timings = List.rev !timings }

(* -- JSON ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let per_rule_violations (r : Lint_core.report) =
  List.map
    (fun rule ->
      (rule, List.length (List.filter (fun (v : Lint_core.violation) -> v.rule = rule) r.violations)))
    (Lint_core.rules @ [ "LINT" ])

(* Hand-rolled like the BENCH_*.json writers: key order fixed, output
   byte-stable for a given repo state. *)
let to_json report =
  let buf = Buffer.create 4096 in
  let r = report.core in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"files\": %d,\n" r.files);
  Buffer.add_string buf
    (Printf.sprintf "  \"violation_count\": %d,\n" (List.length r.violations));
  Buffer.add_string buf (Printf.sprintf "  \"suppressed\": %d,\n" r.suppressed);
  Buffer.add_string buf
    (Printf.sprintf "  \"stale_allow_count\": %d,\n" (List.length r.unused_allows));
  let kv_ints name l =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {" name);
    List.iteri
      (fun i (k, n) ->
        Buffer.add_string buf (Printf.sprintf "%s\"%s\": %d" (if i = 0 then "" else ", ") k n))
      l;
    Buffer.add_string buf "},\n"
  in
  kv_ints "violations_by_rule" (per_rule_violations r);
  kv_ints "suppressions_by_rule" r.suppressed_by_rule;
  Buffer.add_string buf "  \"violations\": [";
  List.iteri
    (fun i (v : Lint_core.violation) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
           (if i = 0 then "" else ",")
           (json_escape v.file) v.line (json_escape v.rule) (json_escape v.message)))
    r.violations;
  Buffer.add_string buf (if r.violations = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"stale_allows\": [";
  List.iteri
    (fun i (sa : Lint_core.stale_allow) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\n    {\"file\": \"%s\", \"line\": %d, \"rules\": [%s]}"
           (if i = 0 then "" else ",")
           (json_escape sa.sa_file) sa.sa_line
           (String.concat ", " (List.map (fun r -> "\"" ^ json_escape r ^ "\"") sa.sa_rules))))
    r.unused_allows;
  Buffer.add_string buf (if r.unused_allows = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"ownership\": [";
  List.iteri
    (fun i ((item : Lint_typed.inv_item), cls) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    {\"item\": \"%s\", \"class\": %s, \"file\": \"%s\", \"line\": %d, \
            \"mutable_via\": \"%s\"}"
           (if i = 0 then "" else ",")
           (json_escape item.i_name)
           (match cls with
           | Some c -> "\"" ^ json_escape c ^ "\""
           | None -> "null")
           (json_escape item.i_file) item.i_line
           (json_escape item.i_why_mutable)))
    report.ownership;
  Buffer.add_string buf (if report.ownership = [] then "]\n" else "\n  ]\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_json path report =
  let oc = open_out path in
  output_string oc (to_json report);
  close_out oc

(* SHARD_REPORT.json: the effect map and cut-set the multicore PR
   consumes. Like LINT_REPORT.json this file carries no timings — it
   must be byte-identical for a given repo state, because CI diffs the
   checked-in copy against the freshly built one (the ratchet). *)
let shard_to_json (e : Lint_effects.result) =
  let buf = Buffer.create 4096 in
  let strings l =
    String.concat ", " (List.map (fun s -> "\"" ^ json_escape s ^ "\"") l)
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"r2c2-shard-report/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"roots\": [%s],\n" (strings e.eff_roots));
  Buffer.add_string buf (Printf.sprintf "  \"analyzed_fns\": %d,\n" e.analyzed_fns);
  Buffer.add_string buf (Printf.sprintf "  \"reachable_fns\": %d,\n" e.reachable_fns);
  Buffer.add_string buf "  \"cut_set\": [";
  List.iteri
    (fun i (c : Lint_effects.cut_entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    {\"item\": \"%s\", \"class\": \"%s\", \"key\": %s, \"via\": \"%s\", \
            \"writers\": [%s]}"
           (if i = 0 then "" else ",")
           (json_escape c.c_item) (json_escape c.c_class)
           (match c.c_key with Some k -> "\"" ^ json_escape k ^ "\"" | None -> "null")
           (json_escape c.c_via) (strings c.c_writers)))
    e.cut_set;
  Buffer.add_string buf (if e.cut_set = [] then "],\n" else "\n  ],\n");
  Buffer.add_string buf "  \"effects\": [";
  List.iteri
    (fun i (f : Lint_effects.fn_effect) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n    {\"fn\": \"%s\", \"reachable\": %b, \"widened\": %b, \"param_ho\": \
            %b, \"reads\": [%s], \"writes\": [%s]}"
           (if i = 0 then "" else ",")
           (json_escape f.f_name) f.f_reachable f.f_widened f.f_param_ho
           (strings f.f_reads) (strings f.f_writes)))
    e.fn_effects;
  Buffer.add_string buf (if e.fn_effects = [] then "]\n" else "\n  ]\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_shard_json path e =
  let oc = open_out path in
  output_string oc (shard_to_json e);
  close_out oc

(* -- text report ----------------------------------------------------------- *)

let report_and_exit_code oc report =
  let code = Lint_core.report_and_exit_code oc report.core in
  if report.ownership <> [] then begin
    let n_reg =
      List.length (List.filter (fun (_, c) -> c <> None) report.ownership)
    in
    Printf.fprintf oc "  ownership map: %d mutable item(s), %d registered\n"
      (List.length report.ownership) n_reg
  end;
  (match report.effects with
  | Some e ->
      let witnessed =
        List.length
          (List.filter (fun (c : Lint_effects.cut_entry) -> c.c_via = "witnessed") e.cut_set)
      in
      Printf.fprintf oc
        "  effect map: %d function(s), %d reachable from dispatch roots; cut-set %d \
         region(s), %d witnessed\n"
        e.analyzed_fns e.reachable_fns (List.length e.cut_set) witnessed
  | None -> ());
  Printf.fprintf oc "  timings (ms): %s\n"
    (String.concat ", " (List.map (fun (name, ms) -> Printf.sprintf "%s %.1f" name ms) report.timings));
  code
