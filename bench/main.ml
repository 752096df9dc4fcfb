(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) and, with "bechamel",
   measures the simulator's own throughput with one Bechamel test per
   table/figure.

   Usage: main.exe [name ...]
     experiments:      any id of `armvirt list` (Armvirt_core.Catalog)
     self-benchmarks:  bechamel, runner, explore, migrate; these win over
                       a catalog id of the same name
     all (default):    every catalog experiment, then every
                       self-benchmark *)

module Catalog = Armvirt_core.Catalog
module Experiment = Armvirt_core.Experiment

let ppf = Format.std_formatter

module Runner = Armvirt_core.Runner

(* Wall-clock comparison of the runner's serial and parallel paths over
   the artifacts with the widest fan-out. The memo table is cleared
   before every timed run so both paths regenerate from scratch. *)
let run_runner_bench () =
  let artifacts =
    [
      ("table2", fun () -> ignore (Experiment.table2 ()));
      ("fig4", fun () -> ignore (Experiment.fig4 ()));
      ("vhe", fun () -> ignore (Experiment.vhe ()));
    ]
  in
  let timed jobs =
    Experiment.reset_memo ();
    Runner.set_jobs jobs;
    let t0 = Unix.gettimeofday () in
    List.iter (fun (_, f) -> f ()) artifacts;
    Unix.gettimeofday () -. t0
  in
  let parallel_jobs = max 4 (Runner.default_jobs ()) in
  let serial = timed 1 in
  let parallel = timed parallel_jobs in
  Runner.set_jobs 1;
  Format.fprintf ppf
    "Runner: table2+fig4+vhe, serial vs parallel (memo cleared per run)@.";
  Format.fprintf ppf "  --jobs 1   %8.3f s@." serial;
  Format.fprintf ppf "  --jobs %-3d %8.3f s  (%.2fx, %d core%s visible)@."
    parallel_jobs parallel (serial /. parallel)
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  (* Memoization across artifacts: a warm second regeneration. *)
  Experiment.reset_memo ();
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) artifacts;
  let cold = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) artifacts;
  let warm = Unix.gettimeofday () -. t0 in
  let hits, misses = Experiment.memo_stats () in
  Format.fprintf ppf
    "  memo: cold %.3f s, warm %.3f s (%.2fx); %d hits / %d misses@." cold warm
    (cold /. warm) hits misses

module Explore = Armvirt_explore

(* What the explore stack adds on top of bare Runner.map: same points,
   same objective, once through Sweep.run (sampler + config application
   + Pareto + emitter-ready rows) and once hand-rolled. *)
let run_explore_bench () =
  let space =
    Explore.Space.of_string "vgic.save=2000:4400:150,trap_to_el2=40:120:40"
  in
  let sampler = Explore.Sampler.Grid in
  let objective = Explore.Objective.find "hypercall" in
  let points = Explore.Sampler.points sampler ~seed:42 space in
  let n = List.length points in
  let base = Explore.Config.default in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let bare =
    timed (fun () ->
        ignore
          (Runner.map ~jobs:1
             (fun p ->
               objective.Explore.Objective.eval
                 (Explore.Config.apply_point base p))
             points))
  in
  let sweep =
    timed (fun () ->
        ignore
          (Explore.Sweep.run ~jobs:1 ~base ~sampler ~objectives:[ objective ]
             space))
  in
  Format.fprintf ppf
    "Explore: %d-point grid, hypercall objective, --jobs 1@." n;
  Format.fprintf ppf "  bare Runner.map   %8.3f s  (%7.1f us/point)@." bare
    (bare /. float_of_int n *. 1e6);
  Format.fprintf ppf "  Sweep.run         %8.3f s  (%7.1f us/point)@." sweep
    (sweep /. float_of_int n *. 1e6);
  Format.fprintf ppf "  stack overhead    %8.1f us/point (%.1f%%)@."
    ((sweep -. bare) /. float_of_int n *. 1e6)
    ((sweep -. bare) /. bare *. 100.)

(* Live migration: what shipping one page actually costs through each
   hypervisor's transport, against the bare memcpy+wire lower bound the
   Native profile gives (no wp faults, no harvest, no kicks). *)
let run_migrate_bench () =
  let module P = Armvirt_core.Platform in
  let module WM = Armvirt_workloads.Migration in
  let module Pre = Armvirt_migrate.Precopy in
  let results =
    Runner.map
      (fun (name, build) -> (name, WM.run (build ())))
      [
        ("Native (memcpy+wire)", fun () -> P.native P.Arm_m400);
        ("KVM ARM", fun () -> P.hypervisor P.Arm_m400 P.Kvm);
        ("KVM ARM (VHE)", fun () -> P.hypervisor P.Arm_m400_vhe P.Kvm);
        ("Xen ARM", fun () -> P.hypervisor P.Arm_m400 P.Xen);
      ]
  in
  let per_page (round : Pre.round) =
    round.Pre.duration_us /. float_of_int (Stdlib.max 1 round.Pre.pages)
  in
  let floor =
    match results with
    | (_, n) :: _ -> (
        match n.WM.rounds with r :: _ -> per_page r | [] -> 1.0)
    | [] -> 1.0
  in
  Format.fprintf ppf
    "Migrate: pre-copy cost per shipped page (us), per round, vs the \
     bare memcpy+wire floor of %.3f us/page@."
    floor;
  List.iter
    (fun (name, (r : WM.result)) ->
      Format.fprintf ppf "  %-22s" name;
      List.iteri
        (fun i round ->
          if i < 5 then
            Format.fprintf ppf "  r%d %.3f (+%.0f%%)" i (per_page round)
              ((per_page round -. floor) /. floor *. 100.0))
        r.WM.rounds;
      Format.fprintf ppf "@.")
    results

(* Bechamel: how fast the simulator itself regenerates each artifact.
   Every staged run clears the cross-artifact memo table first, so
   iterations measure regeneration, not cache hits. *)
let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let stage f =
    Staged.stage (fun () ->
        Experiment.reset_memo ();
        ignore (f ()))
  in
  let tests =
    Test.make_grouped ~name:"regenerate"
      [
        Test.make ~name:"table2"
          (stage (fun () -> Experiment.table2 ~iterations:2 ()));
        Test.make ~name:"table3" (stage Experiment.table3);
        Test.make ~name:"table5"
          (stage (fun () -> Experiment.table5 ~transactions:50 ()));
        Test.make ~name:"fig4" (stage Experiment.fig4);
        Test.make ~name:"vhe" (stage (fun () -> Experiment.vhe ~iterations:2 ()));
        Test.make ~name:"irqdist" (stage Experiment.irqdist);
        Test.make ~name:"pinning"
          (stage (fun () -> Experiment.pinning ~iterations:2 ()));
        Test.make ~name:"zerocopy" (stage Experiment.zerocopy);
        Test.make ~name:"oversub" (stage Experiment.oversub);
        Test.make ~name:"disk" (stage Experiment.disk);
        Test.make ~name:"tail" (stage Experiment.tail);
        Test.make ~name:"coldstart" (stage Experiment.coldstart);
        Test.make ~name:"lrs" (stage Experiment.lrs);
        Test.make ~name:"gicv3" (stage Experiment.gicv3);
        Test.make ~name:"ticks" (stage Experiment.ticks);
        Test.make ~name:"linkspeed" (stage Experiment.linkspeed);
        Test.make ~name:"isolation" (stage Experiment.isolation);
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.fprintf ppf "Bechamel: simulator cost per regeneration@.";
  let rows =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] -> Format.fprintf ppf "  %-24s %12.0f ns/run@." name ns
      | Some _ | None -> Format.fprintf ppf "  %-24s (no estimate)@." name)
    rows

let self_benchmarks =
  [
    ("bechamel", run_bechamel);
    ("runner", run_runner_bench);
    ("explore", run_explore_bench);
    ("migrate", run_migrate_bench);
  ]

let run_experiment (e : Catalog.t) =
  e.run ppf;
  Format.pp_print_newline ppf ()

let run_one name =
  match (List.assoc_opt name self_benchmarks, Catalog.find name) with
  | Some f, _ -> f ()
  | None, Some e -> run_experiment e
  | None, None ->
      Format.fprintf ppf "unknown experiment %S; available: %s %s all@." name
        (String.concat " " (List.map (fun (e : Catalog.t) -> e.id) Catalog.all))
        (String.concat " " (List.map fst self_benchmarks));
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ "all" ] ->
      List.iter run_experiment Catalog.all;
      List.iter (fun (_, f) -> f ()) self_benchmarks
  | names -> List.iter run_one names
