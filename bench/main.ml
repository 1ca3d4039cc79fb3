(* Benchmark harness regenerating every table and figure of the paper's
   evaluation. `main.exe` runs all experiments at default (scaled-down)
   parameters; `main.exe <exp-id>` runs one; `--paper` uses paper-scale
   parameters where that is tractable. See DESIGN.md §4 for the index. *)

let all_experiments ~paper =
  Experiments.fig2 ();
  if paper then Experiments.fig7 ~flows:1000 ~size:10_000_000 ()
  else Experiments.fig7 ();
  Experiments.fig8 ();
  Experiments.fig9 ();
  let dims = [| 8; 8; 8 |] in
  let flows = 2000 in
  Experiments.fig10_11 ~dims ~flows ();
  Experiments.fig12_13_14 ~dims ~flows ();
  Experiments.fig15 ();
  Experiments.fig16 ();
  Experiments.fig17 ();
  if paper then Experiments.fig18 ~dims:[| 8; 8; 8 |] ~pop_size:100 ~generations:30 ()
  else Experiments.fig18 ();
  Experiments.fig19 ();
  Experiments.ablations ()

let () =
  let usage () =
    print_endline
      "usage: main.exe [exp-id] [--paper]\n\
       exp-ids: fig2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16\n\
      \         fig17 fig18 fig19 ablation micro chaos graychaos overload control-loss\n\
      \         all (default: all)\n\
       chaos writes BENCH_failure.json; graychaos writes BENCH_graychaos.json;\n\
       overload writes BENCH_overload.json; control-loss writes\n\
       BENCH_controlloss.json";
    exit 1
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let paper = List.mem "--paper" args in
  let args = List.filter (fun a -> a <> "--paper") args in
  let dims = [| 8; 8; 8 |] in
  let flows = 2000 in
  match args with
  | [] | [ "all" ] -> all_experiments ~paper
  | [ "fig2" ] -> Experiments.fig2 ()
  | [ "fig7" ] ->
      if paper then Experiments.fig7 ~flows:1000 ~size:10_000_000 () else Experiments.fig7 ()
  | [ "fig8" ] -> Experiments.fig8 ()
  | [ "fig9" ] -> Experiments.fig9 ()
  | [ "fig10" ] | [ "fig11" ] -> Experiments.fig10_11 ~dims ~flows ()
  | [ "fig12" ] | [ "fig13" ] | [ "fig14" ] -> Experiments.fig12_13_14 ~dims ~flows ()
  | [ "fig15" ] -> Experiments.fig15 ()
  | [ "fig16" ] -> Experiments.fig16 ()
  | [ "fig17" ] -> Experiments.fig17 ()
  | [ "fig18" ] ->
      if paper then Experiments.fig18 ~dims:[| 8; 8; 8 |] ~pop_size:100 ~generations:30 ()
      else Experiments.fig18 ()
  | [ "fig19" ] -> Experiments.fig19 ()
  | [ "ablation" ] -> Experiments.ablations ()
  | [ "micro" ] -> Micro.run ()
  | [ "chaos" ] -> Chaos.run ()
  | [ "graychaos" ] -> Graychaos.run ()
  | [ "overload" ] -> Overload.run ()
  | [ "control-loss" ] -> Controlloss.run ()
  | _ -> usage ()
