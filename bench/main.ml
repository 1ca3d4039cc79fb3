(* Benchmark harness regenerating every table and figure of the paper's
   evaluation. `main.exe` runs all experiments at default (scaled-down)
   parameters; `main.exe <exp-id>` runs one; `--paper` uses paper-scale
   parameters where that is tractable. See DESIGN.md §4 for the index. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let paper = List.mem "--paper" args in
  let at_paper_scale v = if paper then Some v else None in
  (* Figs. 10-14 at the paper's rack size; `all` makes each tau's run once. *)
  let transports = Experiments.transports ~dims:[| 8; 8; 8 |] ~flows:2000 () in
  let tables run () = List.iter Experiments.print (run ()) in
  (* The experiments `all` runs, in order, then the other targets. *)
  let experiments =
    [
      ([ "fig2" ], tables Experiments.fig2);
      ( [ "fig7" ],
        tables (Experiments.fig7 ?flows:(at_paper_scale 1000) ?size:(at_paper_scale 10_000_000))
      );
      ([ "fig8" ], tables Experiments.fig8);
      ([ "fig9" ], tables Experiments.fig9);
      ([ "fig10"; "fig11" ], tables (fun () -> Experiments.fig10_11 transports));
      ([ "fig12"; "fig13"; "fig14" ], tables (fun () -> Experiments.fig12_13_14 transports));
      ([ "fig15" ], tables Experiments.fig15);
      ([ "fig16" ], tables Experiments.fig16);
      ([ "fig17" ], tables Experiments.fig17);
      ( [ "fig18" ],
        tables
          (Experiments.fig18 ?dims:(at_paper_scale [| 8; 8; 8 |]) ?pop_size:(at_paper_scale 100)
             ?generations:(at_paper_scale 30)) );
      ([ "fig19" ], tables Experiments.fig19);
      ([ "ablation" ], tables Experiments.ablations);
    ]
  in
  let all () = List.iter (fun (_, run) -> run ()) experiments in
  let targets =
    experiments
    @ [
        ([ "micro" ], Micro.run);
        ([ "chaos" ], Chaos.run);
        ([ "graychaos" ], Graychaos.run);
        ([ "overload" ], Overload.run);
        ([ "control-loss" ], Controlloss.run);
        ([ "all" ], all);
      ]
  in
  match List.filter (fun a -> a <> "--paper") args with
  | [] -> all ()
  | [ id ] when List.exists (fun (ids, _) -> List.mem id ids) targets ->
      List.iter (fun (ids, run) -> if List.mem id ids then run ()) targets
  | _ ->
      Format.printf
        "usage: main.exe [exp-id] [--paper]@\n@[<hov 9>exp-ids:@ %a@ (default: all)@]@\n\
         chaos writes BENCH_failure.json; graychaos writes BENCH_graychaos.json;@\n\
         overload writes BENCH_overload.json; control-loss writes@\n\
         BENCH_controlloss.json@."
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_string)
        (List.concat_map fst targets);
      exit 1
