(* r2c2-lint CLI.

   Usage:
     lint_main [--json FILE] [--shard-json FILE] [--registry FILE]
               [--cmt-root DIR] [--relaxed DIR]... [--time-budget SEC]
               DIR...

   Each positional DIR is linted at the tier its basename implies
   (lib → Lib, bench/test → Relaxed, anything else → Default);
   `--relaxed DIR` forces a root to the Relaxed tier regardless.
   `--registry` + `--cmt-root` together enable the typed M and E
   passes; omitting either skips them (parse + lifetime rules only).
   `--json FILE` additionally writes the machine-readable report;
   `--shard-json FILE` writes the effect map + cut-set
   (SHARD_REPORT.json). `--time-budget SEC` fails the run (exit 1) if
   the passes together exceed SEC seconds — the CI guard that keeps
   `dune build @lint` interactive as passes accumulate.

   Exit codes (CI keys off these):
     0  clean
     1  violations, stale allows, or a blown time budget — the code
        (or the linter) needs fixing
     2  internal error (bad usage, missing or stale --cmt-root,
        unreadable .cmt, registry syntax error) — the linter run
        itself is invalid *)

let usage () =
  prerr_endline
    "usage: lint_main [--json FILE] [--shard-json FILE] [--registry FILE] [--cmt-root \
     DIR] [--relaxed DIR]... [--time-budget SEC] DIR...";
  exit 2

let () =
  let json = ref None
  and shard_json = ref None
  and registry = ref None
  and cmt_root = ref None
  and relaxed = ref []
  and budget = ref None
  and roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--shard-json" :: v :: rest ->
        shard_json := Some v;
        parse rest
    | "--registry" :: v :: rest ->
        registry := Some v;
        parse rest
    | "--cmt-root" :: v :: rest ->
        cmt_root := Some v;
        parse rest
    | "--relaxed" :: v :: rest ->
        relaxed := v :: !relaxed;
        parse rest
    | "--time-budget" :: v :: rest ->
        (match float_of_string_opt v with
        | Some b when b > 0. -> budget := Some b
        | _ ->
            Printf.eprintf "lint_main: --time-budget expects a positive number, got '%s'\n" v;
            exit 2);
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
        Printf.eprintf "lint_main: unknown option '%s'\n" arg;
        usage ()
    | dir :: rest ->
        if not (Sys.file_exists dir) then begin
          Printf.eprintf "lint_main: no such path: %s\n" dir;
          exit 2
        end;
        roots := dir :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !roots = [] then usage ();
  (* Pre-flight: a missing or stale --cmt-root is diagnosed in one line
     before any .cmt is parsed, not as an exception trace mid-pass. *)
  (match !cmt_root with
  | Some dir -> (
      match Lint_typed.cmt_root_problem ~cmt_root:dir with
      | Some why ->
          Printf.eprintf "lint_main: %s\n" why;
          exit 2
      | None -> ())
  | None -> ());
  let config =
    {
      Lint_driver.roots = List.rev !roots;
      relaxed = List.rev !relaxed;
      registry_file = !registry;
      cmt_root = !cmt_root;
    }
  in
  match Lint_driver.run config with
  | report ->
      (match !json with Some path -> Lint_driver.write_json path report | None -> ());
      (match (!shard_json, report.Lint_driver.effects) with
      | Some path, Some e -> Lint_driver.write_shard_json path e
      | Some _, None ->
          prerr_endline "lint_main: --shard-json requires --registry and --cmt-root";
          exit 2
      | None, _ -> ());
      let code = Lint_driver.report_and_exit_code stdout report in
      let code =
        match !budget with
        | Some b ->
            let total_s =
              List.fold_left (fun a (_, ms) -> a +. ms) 0. report.Lint_driver.timings
              /. 1000.
            in
            if total_s > b then begin
              Printf.eprintf
                "lint_main: lint passes took %.1fs, over the %.1fs budget — see the \
                 per-pass timings in the summary above\n"
                total_s b;
              max code 1
            end
            else code
        | None -> code
      in
      exit code
  | exception Lint_core.Internal msg ->
      Printf.eprintf "lint_main: internal error: %s\n" msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "lint_main: internal error: %s\n" msg;
      exit 2
