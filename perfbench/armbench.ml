(* armbench: the repository's benchmark.

   One invocation runs one workload as repeated passes over fixed
   simulated work, in one process, closed loop in host time: the next
   pass starts when the previous one ends. Every pass is composed from
   the public entry points the CLI commands call (Experiment + Report,
   Platform.hypervisor, Fleet.Scenario, Cluster.run_loadgen,
   Migration.run) and is checked: its rendered output must match the
   committed digest for its seed and the run's first pass, its counts
   must repeat, and the conservation laws below must hold (those in
   [known_broken] are reported instead).

     armbench --workload W --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics (wall_s, setup_s,
   peak_rss_mb, paper_err_pct); --trace 1 is the separate traced run
   that reports the per-layer metrics, records spans around the
   benchmark's calls into each layer and writes them to
   .perfbench/spans-<workload>-seed<N>.json. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Counter = Armvirt_stats.Counter
module Accounting = Armvirt_obs.Accounting
module Platform = Armvirt_core.Platform
module Experiment = Armvirt_core.Experiment
module Report = Armvirt_core.Report
module Paper_data = Armvirt_core.Paper_data
module Runner = Armvirt_core.Runner
module Descriptor = Armvirt_fleet.Descriptor
module Scenario = Armvirt_fleet.Scenario
module Cluster = Armvirt_workloads.Cluster
module Migration = Armvirt_workloads.Migration
module Netperf = Armvirt_workloads.Netperf
module Plan = Armvirt_migrate.Plan

let now = Unix.gettimeofday

(* ---- workloads and the inputs generated from the seed ------------- *)

type workload =
  | Paper_tables
  | Cluster_loadgen
  | Fleet_consolidation
  | Migrate_precopy

let workloads =
  [
    ("paper-tables", Paper_tables);
    ("cluster-loadgen", Cluster_loadgen);
    ("fleet-consolidation", Fleet_consolidation);
    ("migrate-precopy", Migrate_precopy);
  ]

let workload_name w = fst (List.find (fun (_, v) -> v = w) workloads)

(* Every platform/hypervisor model, in the CLI's sweep order. *)
let models =
  [
    ("KVM ARM (VHE)", Platform.Arm_m400_vhe, Platform.Kvm);
    ("KVM ARM", Platform.Arm_m400, Platform.Kvm);
    ("Xen ARM", Platform.Arm_m400, Platform.Xen);
    ("KVM x86", Platform.X86_r320, Platform.Kvm);
    ("Xen x86", Platform.X86_r320, Platform.Xen);
  ]

(* Fixed simulated work per pass. Paper-tables output is identical at
   any iteration count (the model draws nothing at random), so these
   only scale the work, not the answer. *)
let paper_iterations = 2048
let paper_transactions = 20_000
let storm_vms = 1024
let churn_vms = 256
let migrate_pages = 65536

type cell = {
  name : string;
  platform : Platform.t;
  hyp : Platform.hyp_id;
  seed : int;
}

(* The program sees only these per-model seeds, never the workload
   seed itself. Paper-tables ignores them: its model has no draws. *)
let inputs seed =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun (name, platform, hyp) ->
      { name; platform; hyp; seed = Random.State.bits rng })
    models

(* MD5 of each pass's rendered output, per workload and seed ("*" for
   any seed), recorded at the commit that defined this benchmark.
   Paper-tables renders the same bytes as `armvirt run table2`,
   `table3`, `table5`, `fig4` and the first table of `run vhe`, for any
   seed. A seed missing here is checked against the run's first pass
   and the conservation laws only. *)
let digest_file = Filename.concat "perfbench" "digests.txt"
let expected_digests : (workload * int option * string) list ref = ref []

let load_digests () =
  In_channel.with_open_text digest_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; seed; d ] when w.[0] <> '#' ->
             let seed = if seed = "*" then None else Some (int_of_string seed) in
             Some (List.assoc w workloads, seed, d)
         | _ -> None)

let expected_digest w seed =
  List.find_map
    (fun (w', s, d) ->
      if w' = w && (s = None || s = Some seed) then Some d else None)
    !expected_digests

(* ---- spans (traced run only) --------------------------------------- *)

type span = {
  sname : string;
  pass : int;
  parent : int;  (** Index of the enclosing span, -1 for a pass. *)
  start : float;
  mutable stop : float;
}

let tracing = ref false
let current_pass = ref 0
let spans : span list ref = ref [] (* newest first; index = position from the end *)
let span_count = ref 0
let open_spans : int list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let id = !span_count in
    incr span_count;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let s =
      { sname = name; pass = !current_pass; parent; start = now (); stop = nan }
    in
    spans := s :: !spans;
    open_spans := id :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans)
  end

(* Self time: a span's duration minus what its children cover. *)
let self_times () =
  let all = Array.of_list (List.rev !spans) in
  let self = Array.map (fun s -> s.stop -. s.start) all in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    all;
  (all, self)

let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* ---- what each pass built: machines and observer tallies ----------- *)

let built : Machine.t list Atomic.t = Atomic.make []

let rec record m =
  let l = Atomic.get built in
  if not (Atomic.compare_and_set built l (m :: l)) then record m

let spawns = Atomic.make 0
let parks = Atomic.make 0
let wakes = Atomic.make 0
let spends = Atomic.make 0
let counts = Atomic.make 0

let sim_observer =
  {
    Sim.on_spawn = (fun ~id:_ ~name:_ ~at:_ -> Atomic.incr spawns);
    on_park = (fun ~id:_ ~name:_ ~at:_ -> Atomic.incr parks);
    on_wake = (fun ~id:_ ~name:_ ~at:_ -> Atomic.incr wakes);
    on_contention = (fun ~resource:_ ~proc:_ ~at:_ ~waited:_ -> ());
    on_queue_depth = (fun ~mailbox:_ ~at:_ ~depth:_ -> ());
  }

(* Untraced passes only record the machine (one cons); traced passes
   also install the engine and accounting observers. *)
let install_hook ~observed =
  Machine.set_create_hook
    (Some
       (fun m ->
         record m;
         if observed then begin
           Sim.set_observer (Machine.sim m) (Some sim_observer);
           Machine.observe m
             (Some (fun ~label:_ ~cycles:_ ~now:_ -> Atomic.incr spends));
           Machine.observe_count m (Some (fun ~label:_ ~now:_ -> Atomic.incr counts))
         end))

(* ---- the passes ---------------------------------------------------- *)

type law = { law : string; holds : bool; detail : string }

let law law holds detail = { law; holds; detail }

(* Laws that already break at the commit that defined this benchmark,
   per workload. On that workload the law is still checked and its
   figures are printed on every run, but it does not fail the pass; on
   every other workload it does. Drop an entry once the model is fixed. *)
let known_broken =
  [
    (* The Table I harness establishes the VCPU-blocked and VM-running
       states directly, without the exit or entry that led there. *)
    (Paper_tables, "exits = entries per PCPU");
    (* Fleet.Scenario marks no exit when a VCPU finishes its work and
       leaves the PCPU, nor for the guests still running at the end. *)
    (Fleet_consolidation, "exits = entries per PCPU");
  ]

type outcome = {
  text : string;  (** Rendered simulated output; its digest is checked. *)
  facts : (string * float) list;  (** Result-derived per-layer counts. *)
  laws : law list;  (** Result-derived conservation laws. *)
  paper_err : float option;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let render name pp v = span ("render." ^ name) (fun () -> Format.asprintf "%a@?" pp v)

let hypervisor c = span "setup.hypervisor" (fun () -> Platform.hypervisor c.platform c.hyp)

(* Mean absolute percent error of Table II cells, Table V cells and the
   Figure 4 bars read from the paper's text (not [approximate]). Table
   III is left out: the cost model is calibrated from it. *)
let paper_error t2 t5 f4 =
  let errs = ref [] in
  let cell m p =
    if p = 0.0 then invalid_arg "paper_error: zero reference";
    errs := (Float.abs (m -. p) /. Float.abs p *. 100.0) :: !errs
  in
  List.iter
    (fun { Experiment.micro; measured = m } ->
      let p = List.assoc micro Paper_data.table2 in
      let c a b = cell (float_of_int a) (float_of_int b) in
      c m.Paper_data.kvm_arm p.Paper_data.kvm_arm;
      c m.Paper_data.xen_arm p.Paper_data.xen_arm;
      c m.Paper_data.kvm_x86 p.Paper_data.kvm_x86;
      c m.Paper_data.xen_x86 p.Paper_data.xen_x86)
    t2;
  let table5_metrics =
    [
      ("Trans/s", fun r -> Some r.Netperf.trans_per_sec);
      ("Time/trans (us)", fun r -> Some r.Netperf.time_per_trans_us);
      ("send to recv (us)", fun r -> Some r.Netperf.send_to_recv_us);
      ("recv to send (us)", fun r -> Some r.Netperf.recv_to_send_us);
      ("recv to VM recv (us)", fun r -> r.Netperf.recv_to_vm_recv_us);
      ("VM recv to VM send (us)", fun r -> r.Netperf.vm_recv_to_vm_send_us);
      ("VM send to send (us)", fun r -> r.Netperf.vm_send_to_send_us);
    ]
  in
  List.iter
    (fun (metric, get) ->
      let p = List.find (fun r -> r.Paper_data.metric = metric) Paper_data.table5 in
      List.iter
        (fun (config, paper) ->
          match (get (List.assoc config t5), paper) with
          | Some m, Some p -> cell m p
          | _ -> ())
        [ ("Native", p.Paper_data.native); ("KVM", p.Paper_data.kvm); ("Xen", p.Paper_data.xen) ])
    table5_metrics;
  List.iter
    (fun { Experiment.workload; values = v } ->
      let p = List.find (fun e -> e.Paper_data.workload = workload) Paper_data.fig4 in
      if not p.Paper_data.approximate then
        List.iter
          (fun (m, p) -> match (m, p) with Some m, Some p -> cell m p | _ -> ())
          [
            (v.Experiment.q_kvm_arm, p.Paper_data.f_kvm_arm);
            (v.Experiment.q_xen_arm, p.Paper_data.f_xen_arm);
            (v.Experiment.q_kvm_x86, p.Paper_data.f_kvm_x86);
            (v.Experiment.q_xen_x86, p.Paper_data.f_xen_x86);
          ])
    f4;
  List.fold_left ( +. ) 0.0 !errs /. float_of_int (List.length !errs)

let paper_tables () =
  let t2 =
    span "simulate.table2" (fun () -> Experiment.table2 ~iterations:paper_iterations ())
  in
  let t3 = span "simulate.table3" Experiment.table3 in
  let t5 =
    span "simulate.table5" (fun () ->
        Experiment.table5 ~transactions:paper_transactions ())
  in
  let f4 = span "simulate.fig4" Experiment.fig4 in
  let vhe = span "simulate.vhe" (fun () -> Experiment.vhe ~iterations:paper_iterations ()) in
  let text =
    String.concat ""
      [
        render "table2" Report.pp_table2 t2;
        render "table3" Report.pp_table3 t3;
        render "table5" Report.pp_table5 t5;
        render "fig4" Report.pp_fig4 f4;
        render "vhe" Report.pp_vhe vhe;
      ]
  in
  { text; facts = []; laws = []; paper_err = Some (paper_error t2 t5 f4) }

(* Exact float rendering, so any change to a simulated figure changes
   the digest. *)
let f = Printf.sprintf "%.17g"
let csv header rows ppf () = Report.pp_csv_table ppf ~header rows

let cluster_loadgen cells =
  let results =
    Runner.map
      (fun c ->
        let hyp = hypervisor c in
        span "simulate.loadgen" (fun () -> Cluster.run_loadgen ~seed:c.seed hyp))
      cells
  in
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun p ->
            Cluster.
              [
                r.lg_config; r.lg_topology; string_of_int r.backends;
                string_of_int r.lg_requests; f p.offered; f p.offered_rps;
                string_of_int p.completed; f p.mean_us; f p.p50_us; f p.p95_us;
                f p.p99_us; f p.throughput_rps;
              ])
          r.Cluster.points)
      results
  in
  let header =
    [
      "config"; "topology"; "backends"; "requests"; "offered"; "offered_rps";
      "completed"; "mean_us"; "p50_us"; "p95_us"; "p99_us"; "throughput_rps";
    ]
  in
  let completed =
    sum (fun r -> sum (fun p -> p.Cluster.completed) r.Cluster.points) results
  in
  {
    text = render "loadgen" (csv header rows) ();
    facts = [ ("cluster.requests_completed", float_of_int completed) ];
    laws = [];
    paper_err = None;
  }

let fleet_consolidation cells =
  let results =
    Runner.map
      (fun c ->
        let mix = Experiment.default_fleet_mix in
        let hyp = hypervisor c in
        let desc = span "setup.descriptor" (fun () -> Descriptor.v ~vms:storm_vms mix) in
        let storm =
          span "simulate.boot_storm" (fun () -> Scenario.boot_storm ~seed:c.seed hyp desc)
        in
        let hyp = hypervisor c in
        let desc = span "setup.descriptor" (fun () -> Descriptor.v ~vms:churn_vms mix) in
        let churn = span "simulate.churn" (fun () -> Scenario.churn ~seed:c.seed hyp desc) in
        (storm, churn))
      cells
  in
  let storms = List.map fst results and churns = List.map snd results in
  let storm_rows =
    List.map
      (fun (r : Scenario.boot_storm_result) ->
        Scenario.
          [
            r.config; string_of_int r.vms; f r.window_ms; f r.time_to_ready_ms;
            f r.mean_boot_ms; f r.p99_boot_ms; string_of_int r.switches;
            string_of_int r.peak_live;
          ])
      storms
  in
  let churn_rows =
    List.map
      (fun (r : Scenario.churn_result) ->
        [
          r.config; string_of_int r.initial_vms; string_of_int r.arrivals;
          string_of_int r.admitted; string_of_int r.retired;
          string_of_int r.peak_live; string_of_int r.domid_reuses; f r.drain_ms;
          string_of_int r.switches;
        ])
      churns
  in
  let text =
    render "boot_storm"
      (csv
         [ "config"; "vms"; "window_ms"; "time_to_ready_ms"; "mean_boot_ms";
           "p99_boot_ms"; "switches"; "peak_live" ]
         storm_rows)
      ()
    ^ render "churn"
        (csv
           [ "config"; "initial_vms"; "arrivals"; "admitted"; "retired";
             "peak_live"; "domid_reuses"; "drain_ms"; "switches" ]
           churn_rows)
        ()
  in
  let n g = float_of_int g in
  let admitted = sum (fun (r : Scenario.churn_result) -> r.admitted) churns in
  let retired = sum (fun (r : Scenario.churn_result) -> r.retired) churns in
  let offered = sum (fun (r : Scenario.churn_result) -> r.initial_vms + r.arrivals) churns in
  {
    text;
    facts =
      [
        ("fleet.guests_ready", n (sum (fun (r : Scenario.boot_storm_result) -> r.vms) storms));
        ("fleet.admitted", n admitted);
        ("fleet.retired", n retired);
        ( "fleet.peak_live",
          n
            (sum (fun (r : Scenario.boot_storm_result) -> r.peak_live) storms
            + sum (fun (r : Scenario.churn_result) -> r.peak_live) churns) );
        ("fleet.domid_reuses", n (sum (fun (r : Scenario.churn_result) -> r.domid_reuses) churns));
        ( "fleet.sched_switches",
          n
            (sum (fun (r : Scenario.boot_storm_result) -> r.switches) storms
            + sum (fun (r : Scenario.churn_result) -> r.switches) churns) );
      ];
    laws =
      [
        (* Churn returns once the last guest has departed: live = 0. *)
        law "fleet admitted = retired + live" (admitted = retired)
          (Printf.sprintf "%d admitted, %d retired, 0 live" admitted retired);
        law "fleet admitted = initial + arrivals" (admitted = offered)
          (Printf.sprintf "%d admitted, %d offered" admitted offered);
      ];
    paper_err = None;
  }

let migrate_precopy cells =
  let results =
    Runner.map
      (fun c ->
        let hyp = hypervisor c in
        let plan = { Plan.default with Plan.pages = migrate_pages; seed = c.seed } in
        (c.name, span "simulate.migrate" (fun () -> Migration.run ~plan hyp)))
      cells
  in
  let text =
    render "migrate" Report.pp_migrate results
    ^ render "migrate_rounds" Report.pp_migrate_rounds results
  in
  let rs = List.map snd results in
  let n g = float_of_int (sum g rs) in
  {
    text;
    facts =
      [
        ("migrate.rounds", n (fun r -> List.length r.Migration.rounds));
        ("migrate.pages_sent", n (fun r -> r.Migration.pages_sent));
        ("migrate.pages_resent", n (fun r -> r.Migration.pages_resent));
        ("migrate.wp_faults", n (fun r -> r.Migration.wp_faults));
      ];
    laws =
      List.map
        (fun (name, r) ->
          let open Migration in
          law "migrate pages_sent = guest pages + pages_resent"
            (r.pages_sent = r.plan.Plan.pages + r.pages_resent)
            (Printf.sprintf "%s: %d sent, %d guest pages, %d resent" name r.pages_sent
               r.plan.Plan.pages r.pages_resent))
        results;
    paper_err = None;
  }

let simulate w cells =
  match w with
  | Paper_tables -> paper_tables ()
  | Cluster_loadgen -> cluster_loadgen cells
  | Fleet_consolidation -> fleet_consolidation cells
  | Migrate_precopy -> migrate_precopy cells

(* ---- facts and laws read back from the machines a pass built -------- *)

let int_after prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    int_of_string_opt (String.sub s n (String.length s - n))
  else None

(* A switch's ports and uplinks, named by the machine that counted
   them and the switch's name. *)
type switch_tally = {
  mutable ports : int list;
  mutable uplinks : int list;
  mutable flooded : int;
}

let machine_facts machines =
  let sims =
    List.fold_left
      (fun acc m ->
        if List.exists (fun (s, _) -> s == Machine.sim m) acc then acc
        else (Machine.sim m, m) :: acc)
      [] machines
  in
  let events = sum (fun (s, _) -> Sim.events_processed s) sims in
  (* Summed in sorted order: at --jobs > 1 the machines arrive in any
     order, and float addition is not associative. *)
  let sim_s =
    List.map
      (fun (s, m) -> float_of_int (Cycles.to_int (Sim.now s)) /. (Machine.freq_ghz m *. 1e9))
      sims
    |> List.sort Float.compare
    |> List.fold_left ( +. ) 0.0
  in
  let labels = ref 0 and switches = ref 0 in
  let rx = ref 0 and tx = ref 0 and drops = ref 0 in
  let pcpus = Hashtbl.create 64 in
  let bump key ~exit n =
    let e, x = Option.value ~default:(0, 0) (Hashtbl.find_opt pcpus key) in
    Hashtbl.replace pcpus key (if exit then (e, x + n) else (e + n, x))
  in
  let fabric = Hashtbl.create 8 in
  let switch key =
    match Hashtbl.find_opt fabric key with
    | Some t -> t
    | None ->
        let t = { ports = []; uplinks = []; flooded = 0 } in
        Hashtbl.replace fabric key t;
        t
  in
  let add_port t id = if not (List.mem id t.ports) then t.ports <- id :: t.ports in
  let add_uplink t id = if not (List.mem id t.uplinks) then t.uplinks <- id :: t.uplinks in
  let frames dir n =
    match dir with
    | "rx" -> rx := !rx + n
    | "tx" -> tx := !tx + n
    | "drop" -> drops := !drops + n
    | _ -> ()
  in
  List.iteri
    (fun i m ->
      let set = Machine.counters m in
      List.iter
        (fun label ->
          incr labels;
          let n = Counter.get set label in
          match Accounting.parse_label label with
          | Some (Accounting.Exit { hyp; pcpu; _ }) -> bump (i, hyp, pcpu) ~exit:true n
          | Some (Accounting.Entry { hyp; pcpu; _ }) -> bump (i, hyp, pcpu) ~exit:false n
          | Some (Accounting.Op { hyp; op }) -> (
              match (hyp, String.split_on_char '/' op) with
              | _, [ "vm_switch" ] -> switches := !switches + n
              | "vswitch", [ sw; port; dir ] -> (
                  match int_after "p" port with
                  | Some id ->
                      add_port (switch (i, sw)) id;
                      frames dir n
                  | None -> ())
              | "vswitch", [ sw; "flood" ] ->
                  let t = switch (i, sw) in
                  t.flooded <- t.flooded + n
              | "wire", [ link; dir ] -> (
                  match String.split_on_char '-' link with
                  | [ sw; u ] -> (
                      match int_after "u" u with
                      | Some id ->
                          add_uplink (switch (i, sw)) id;
                          frames dir n
                      | None -> ())
                  | _ -> ())
              | _ -> ())
          | None -> ())
        (Counter.names set))
    machines;
  let entries = Hashtbl.fold (fun _ (e, _) acc -> acc + e) pcpus 0 in
  let exits = Hashtbl.fold (fun _ (_, x) acc -> acc + x) pcpus 0 in
  let unbalanced =
    Hashtbl.fold
      (fun (_, hyp, pcpu) (e, x) acc -> if e <> x then (hyp, pcpu, x, e) :: acc else acc)
      pcpus []
    |> List.sort compare
  in
  (* A flooded frame leaves on every port and uplink but the one it came
     in on: each flood accepts (ports + uplinks - 2) copies beyond the
     ingress frame itself. *)
  let floods = Hashtbl.fold (fun _ t acc -> acc + t.flooded) fabric 0 in
  let copies =
    Hashtbl.fold
      (fun _ t acc -> acc + (t.flooded * (List.length t.ports + List.length t.uplinks - 2)))
      fabric 0
  in
  let n = float_of_int in
  let facts =
    [
      ("engine.events", n events);
      ("engine.sim_s", sim_s);
      ("accounting.labels", n !labels);
      ("hypervisor.exits", n exits);
      ("hypervisor.entries", n entries);
      ("hypervisor.vm_switch_ops", n !switches);
      ("vswitch.frames_rx", n !rx);
      ("vswitch.frames_tx", n !tx);
      ("vswitch.drops", n !drops);
      ("vswitch.floods", n floods);
      ("runner.cells", n (List.length machines));
    ]
  in
  let laws =
    [
      law "vswitch frames accepted = delivered + dropped"
        (!rx + copies = !tx + !drops)
        (Printf.sprintf "%d received + %d flood copies accepted, %d delivered, %d dropped"
           !rx copies !tx !drops);
      law "exits = entries per PCPU" (unbalanced = [])
        (match unbalanced with
        | [] -> Printf.sprintf "%d exits, %d entries" exits entries
        | (hyp, pcpu, x, e) :: rest ->
            Printf.sprintf
              "%d PCPUs unbalanced, first %s p%d: %d exits, %d entries; %d exits, %d entries in all"
              (1 + List.length rest) hyp pcpu x e exits entries);
    ]
  in
  (facts, laws)

(* ---- one pass ------------------------------------------------------ *)

type pass = {
  id : int;
  wall : float;
  errors : string list;
  known_breaks : law list;  (** Laws on {!known_broken} that broke. *)
  facts : (string * float) list;
  render_bytes : int;
  paper_err : float option;
  minor_words : float;
  major_collections : int;
}

type run = {
  workload : workload;
  seed : int;
  cells : cell list;
  mutable first : (string * (string * float) list) option;
      (** Digest and counts of the first pass that completed. *)
  mutable first_observed : (string * float) list option;
      (** Observer tallies of the first traced pass. *)
  mutable passes : pass list;  (** newest first *)
}

let check run (o : outcome) ~memo ~observed =
  let machines = List.rev (Atomic.get built) in
  let mfacts, mlaws = machine_facts machines in
  let facts = List.sort compare (mfacts @ o.facts @ memo) in
  let digest = Digest.to_hex (Digest.string o.text) in
  let errors = ref [] in
  let fail e = errors := e :: !errors in
  let known = ref [] in
  List.iter
    (fun l ->
      if not l.holds then
        if List.mem (run.workload, l.law) known_broken then known := l :: !known
        else fail (Printf.sprintf "law broken: %s (%s)" l.law l.detail))
    (mlaws @ o.laws);
  (match expected_digest run.workload run.seed with
  | Some d when d <> digest -> fail (Printf.sprintf "digest %s, expected %s" digest d)
  | _ -> ());
  (match run.first with
  | None -> run.first <- Some (digest, facts)
  | Some (d, fs) ->
      if d <> digest then
        fail (Printf.sprintf "digest %s differs from the first pass's %s" digest d);
      if fs <> facts then fail "per-layer counts differ from the first pass");
  (match (observed, run.first_observed) with
  | [], _ -> ()
  | _, None -> run.first_observed <- Some observed
  | _, Some o -> if o <> observed then fail "observer tallies differ from the first traced pass");
  (facts @ observed, List.rev !errors, !known)

let run_pass run ~traced ~jobs =
  let id = List.length run.passes in
  Runner.set_jobs jobs;
  install_hook ~observed:traced;
  Atomic.set built [];
  List.iter (fun a -> Atomic.set a 0) [ spawns; parks; wakes; spends; counts ];
  let hits0, misses0 = Experiment.memo_stats () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let minor0 = Gc.minor_words () in
  let counted o =
    let hits, misses = Experiment.memo_stats () in
    let memo =
      [
        ("runner.memo_hits", float_of_int (hits - hits0));
        ("runner.memo_misses", float_of_int (misses - misses0));
      ]
    in
    let observed =
      if not traced then []
      else
        List.map
          (fun (k, a) -> (k, float_of_int (Atomic.get a)))
          [
            ("engine.spawns", spawns); ("engine.parks", parks); ("engine.wakes", wakes);
            ("accounting.spends", spends); ("accounting.counts", counts);
          ]
    in
    check run o ~memo ~observed
  in
  tracing := traced;
  current_pass := id;
  let t0 = now () in
  let result =
    try
      Ok
        (span "pass" (fun () ->
             (* Later passes must not measure the previous pass's memo hits. *)
             span "setup.reset_memo" Experiment.reset_memo;
             let o = simulate run.workload run.cells in
             (o, span "check" (fun () -> counted o))))
    with e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  tracing := false;
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let p =
    match result with
    | Ok (o, (facts, errors, known_breaks)) ->
        {
          id; wall; errors; known_breaks; facts;
          render_bytes = String.length o.text;
          paper_err = o.paper_err;
          minor_words;
          major_collections;
        }
    | Error e ->
        {
          id; wall; errors = [ "raised " ^ e ]; known_breaks = []; facts = [];
          render_bytes = 0; paper_err = None; minor_words; major_collections;
        }
  in
  Atomic.set built [];
  run.passes <- p :: run.passes;
  List.iter (fun e -> Printf.eprintf "pass %d: %s\n%!" id e) p.errors;
  p

(* Closed loop: passes back to back until [seconds] have elapsed, at
   least [min] of them. [between share] runs before each pass, untimed,
   with the share of the time already spent. *)
let passes_for ?(between = fun _ -> ()) ~seconds ~min pass =
  let t0 = now () in
  let rec go acc k =
    let spent = now () -. t0 in
    if k >= min && spent >= seconds then List.rev acc
    else begin
      between (spent /. seconds);
      go (pass () :: acc) (k + 1)
    end
  in
  go [] 0

(* ---- statistics and host measurements ------------------------------ *)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i))) else sorted.(i)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile (sorted l) 0.5

(* Peak resident set of this process, from the kernel. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* Run this executable again in a child mode and return its one line
   of output. *)
let child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.trim line
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

let setup_probes = 25

(* Set-up time: from just before the process is spawned until it has
   started the runtime, initialised every module, read the digest table
   and generated the workload's inputs, i.e. until its first pass could
   begin. Measured on fresh child processes so each sample pays the
   full cost, spread over the whole run so that no one stretch of host
   load decides the median. *)
let setup_sample w seed =
  let t0 = Printf.sprintf "%.17g" (now ()) in
  float_of_string
    (child
       [
         "--child"; "setup"; "--t0"; t0; "--workload"; workload_name w;
         "--seed"; string_of_int seed;
       ])

(* ---- output -------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let summary run =
  let all = run.passes in
  let failed = List.length (List.filter (fun p -> p.errors <> []) all) in
  (List.length all, failed)

let digest_line run =
  match run.first with
  | None -> "digest: none (first pass raised)"
  | Some (d, _) -> (
      match expected_digest run.workload run.seed with
      | Some e when e = d -> Printf.sprintf "digest %s (committed digest for this seed)" d
      | Some e -> Printf.sprintf "digest %s (committed digest is %s)" d e
      | None ->
          Printf.sprintf "digest %s (no committed digest for seed %d: checked against pass 0)" d
            run.seed)

(* Every known breakage is reported, with the first pass's figures. *)
let known_lines run =
  let all = List.rev run.passes in
  List.filter_map
    (fun (w, name) ->
      if w <> run.workload then None
      else
        let broke = List.filter (fun p -> List.exists (fun l -> l.law = name) p.known_breaks) all in
        match broke with
        | [] -> Some (Printf.sprintf "law holds: %s (known broken at HEAD, now fixed)" name)
        | p :: _ ->
            let l = List.find (fun l -> l.law = name) p.known_breaks in
            Some
              (Printf.sprintf
                 "law broken (known at HEAD, not counted in fail_rate): %s in %d of %d passes (%s)"
                 name (List.length broke) (List.length all) l.detail))
    known_broken

let fact p name = Option.value ~default:0.0 (List.assoc_opt name p.facts)

(* ---- the two runs -------------------------------------------------- *)

let untraced_run run ~seconds =
  let setup = ref [] in
  let probe_until n =
    while List.length !setup < n do
      setup := setup_sample run.workload run.seed :: !setup
    done
  in
  let pass () = run_pass run ~traced:false ~jobs:1 in
  probe_until 1;
  let warmup = pass () in
  let between share =
    probe_until (int_of_float (Float.ceil (share *. float_of_int setup_probes)))
  in
  let timed = passes_for ~between ~seconds ~min:1 pass in
  probe_until setup_probes;
  let setup = !setup in
  let walls = List.map (fun p -> p.wall) timed in
  let attempted, failed = summary run in
  let paper_err, paper_note =
    match run.workload with
    | Paper_tables ->
        ( Option.value ~default:nan warmup.paper_err,
          "this workload's own Table II/V/Figure 4 cells" )
    | _ ->
        ( float_of_string (child [ "--child"; "paper-err" ]),
          "model-level, from a side process running paper-tables; this workload \
           has no hardware reference and is unvalidated" )
  in
  let paper_errs_agree =
    List.for_all (fun p -> p.paper_err = None || p.paper_err = Some paper_err) run.passes
  in
  let rss = peak_rss_mb () in
  let w = sorted walls in
  Printf.printf "workload %s seed %d: %d passes at jobs 1 (1 warm-up + %d timed)\n"
    (workload_name run.workload) run.seed attempted (List.length timed);
  Printf.printf "wall_s %.6f s (median of %d timed passes; q1 %.6f, q3 %.6f; %.0f events a pass)\n"
    (median walls) (List.length walls) (quantile w 0.25) (quantile w 0.75)
    (fact warmup "engine.events");
  Printf.printf "pass walls (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.4f") walls));
  Printf.printf "setup_s %.6f s (median of %d process starts)\n" (median setup) setup_probes;
  Printf.printf "peak_rss_mb %.3f MiB (VmHWM at the end of the run)\n" rss;
  Printf.printf "fail_rate %g fraction (%d failed of %d passes)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  Printf.printf "paper_err_pct %.6f %% (%s)\n" paper_err paper_note;
  List.iter print_endline (known_lines run);
  print_endline (digest_line run);
  print_result
    ~correct:(failed = 0 && paper_errs_agree && not (Float.is_nan paper_err))
    ~attempted ~failed
    [
      ("wall_s", median walls, "s");
      ("setup_s", median setup, "s");
      ("peak_rss_mb", rss, "MiB");
      ("paper_err_pct", paper_err, "%");
    ]

let write_spans path (all, self) =
  let oc = open_out path in
  output_string oc "[\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"pass\": %d, \"parent\": %d, \"start_s\": %.9f, \
         \"dur_s\": %.9f, \"self_s\": %.9f}\n"
        (if i = 0 then "" else ",")
        i s.sname s.pass s.parent (s.start -. all.(0).start) (s.stop -. s.start) self.(i))
    all;
  output_string oc "]\n";
  close_out oc

let traced_run run ~seconds =
  let nproc = Domain.recommended_domain_count () in
  let untraced () = run_pass run ~traced:false ~jobs:1 in
  let traced () = run_pass run ~traced:true ~jobs:1 in
  ignore (untraced ());
  (* Paired trials within this run: an untraced pass, then a traced one.
     Three quarters of the time goes to these pairs, the rest to
     runner fan-out pairs (jobs = nproc, then jobs = 1). *)
  let pairs = passes_for ~seconds:(0.75 *. seconds) ~min:1 (fun () -> (untraced (), traced ())) in
  let fanout =
    passes_for ~seconds:(0.25 *. seconds) ~min:1 (fun () ->
        (run_pass run ~traced:false ~jobs:nproc, untraced ()))
  in
  let attempted, failed = summary run in
  let base = List.map fst pairs and tr = List.map snd pairs in
  let wall_untraced = median (List.map (fun p -> p.wall) base) in
  let wall_traced = median (List.map (fun p -> p.wall) tr) in
  let p0 = List.hd (List.rev run.passes) in
  let t0 = List.hd tr in
  let events = fact p0 "engine.events" in
  let all, self = self_times () in
  let span_s cat =
    median
      (List.map
         (fun p ->
           let total = ref 0.0 in
           Array.iteri
             (fun i s ->
               if s.pass = p.id && category s.sname = cat then total := !total +. self.(i))
             all;
           !total)
         tr)
  in
  let sched_switches = fact p0 "hypervisor.vm_switch_ops" +. fact p0 "fleet.sched_switches" in
  let metrics =
    [
      ("engine.events", events, "count");
      ("engine.sim_s", fact p0 "engine.sim_s", "sim-s");
      ("engine.host_ns_per_event", wall_untraced /. events *. 1e9, "ns");
      ("engine.spawns", fact t0 "engine.spawns", "count");
      ("engine.parks", fact t0 "engine.parks", "count");
      ("engine.wakes", fact t0 "engine.wakes", "count");
      ("accounting.labels", fact p0 "accounting.labels", "count");
      ("accounting.spends", fact t0 "accounting.spends", "count");
      ("accounting.counts", fact t0 "accounting.counts", "count");
      ("hypervisor.exits", fact p0 "hypervisor.exits", "count");
      ("hypervisor.entries", fact p0 "hypervisor.entries", "count");
      ("hypervisor.sched_switches", sched_switches, "count");
      ("vswitch.frames_rx", fact p0 "vswitch.frames_rx", "count");
      ("vswitch.frames_tx", fact p0 "vswitch.frames_tx", "count");
      ("vswitch.drops", fact p0 "vswitch.drops", "count");
      ("vswitch.floods", fact p0 "vswitch.floods", "count");
      ("cluster.requests_completed", fact p0 "cluster.requests_completed", "count");
      ("fleet.guests_ready", fact p0 "fleet.guests_ready", "count");
      ("fleet.admitted", fact p0 "fleet.admitted", "count");
      ("fleet.retired", fact p0 "fleet.retired", "count");
      ("fleet.peak_live", fact p0 "fleet.peak_live", "count");
      ("fleet.domid_reuses", fact p0 "fleet.domid_reuses", "count");
      ("migrate.rounds", fact p0 "migrate.rounds", "count");
      ("migrate.pages_sent", fact p0 "migrate.pages_sent", "count");
      ("migrate.pages_resent", fact p0 "migrate.pages_resent", "count");
      ("migrate.wp_faults", fact p0 "migrate.wp_faults", "count");
      ("runner.cells", fact p0 "runner.cells", "count");
      ("runner.memo_hits", fact p0 "runner.memo_hits", "count");
      ("runner.memo_misses", fact p0 "runner.memo_misses", "count");
      ( "runner.fanout_speedup",
        median (List.map (fun (_, p1) -> p1.wall) fanout)
        /. median (List.map (fun (pn, _) -> pn.wall) fanout),
        "ratio" );
      ("render.bytes", float_of_int p0.render_bytes, "bytes");
      ("span.render_s", span_s "render", "s");
      ( "gc.minor_words_per_event",
        median (List.map (fun p -> p.minor_words /. fact p "engine.events") base),
        "words/event" );
      ( "gc.major_collections",
        median (List.map (fun p -> float_of_int p.major_collections) base),
        "count" );
      ("span.setup_s", span_s "setup", "s");
      ("span.simulate_s", span_s "simulate", "s");
      ("span.check_s", span_s "check", "s");
      ("trace.overhead_pct", (wall_traced /. wall_untraced -. 1.0) *. 100.0, "%");
    ]
  in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "spans-%s-seed%d.json" (workload_name run.workload) run.seed)
  in
  write_spans path (all, self);
  Printf.printf "workload %s seed %d: %d passes (%d traced, %d untraced at jobs 1, %d at jobs %d)\n"
    (workload_name run.workload) run.seed attempted (List.length tr)
    (attempted - List.length tr - List.length fanout)
    (List.length fanout) nproc;
  Printf.printf "spans: %d written to %s\n" !span_count path;
  List.iter (fun (name, v, unit) -> Printf.printf "%s %s %s\n" name (json_number v) unit) metrics;
  List.iter print_endline (known_lines run);
  print_endline (digest_line run);
  print_result ~correct:(failed = 0) ~attempted ~failed metrics

(* ---- command line -------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: armbench --workload (paper-tables|cluster-loadgen|fleet-consolidation|migrate-precopy) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "child"; "t0" ] in
  if List.exists (fun (k, _) -> not (List.mem k known)) opts then usage ();
  let get key = List.assoc_opt key opts in
  let int key default =
    match get key with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  match get "child" with
  | Some "paper-err" ->
      Runner.set_jobs 1;
      print_string (json_number (Option.get (paper_tables ()).paper_err))
  | child_mode -> (
      let workload =
        match Option.bind (get "workload") (fun w -> List.assoc_opt w workloads) with
        | Some w -> w
        | None -> usage ()
      in
      let seed = int "seed" 1 in
      expected_digests := load_digests ();
      let run =
        { workload; seed; cells = inputs seed; first = None; first_observed = None; passes = [] }
      in
      match child_mode with
      | Some "setup" ->
          let t0 = float_of_string (Option.get (get "t0")) in
          Printf.printf "%.9f" (now () -. t0)
      | Some _ -> usage ()
      | None ->
          let seconds = float_of_int (int "seconds" 10) in
          if seconds <= 0.0 then usage ();
          match int "trace" 0 with
          | 0 -> untraced_run run ~seconds
          | 1 -> traced_run run ~seconds
          | _ -> usage ())
