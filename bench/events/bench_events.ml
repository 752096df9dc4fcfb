(* Events/sec benchmark campaign (ROADMAP open item 1).

   The simulator's raw throughput — events executed per host second — is
   the product metric every subsystem multiplies: fleets, explore sweeps
   and migration rounds are all event counts through Engine.Sim. This
   module measures it two ways:

   - engine microbenchmarks: synthetic mixes that isolate one hot path
     each (raw heap churn, Delay self-rescheduling, Suspend/wake parking,
     Resource contention, Mailbox hand-off);
   - whole workloads: the netperf TCP_RR and live-migration experiments,
     counting every event their machines schedule.

   Results are emitted as the versioned [BENCH_events.json] committed at
   the repo root. Event *counts* are deterministic (the engine is); only
   wall-clock seconds vary from host to host, so throughput is compared
   between runs on the same host, never against recorded constants.

   Wall-clock timing is deliberate and allowed here: bench/ is outside
   the determinism linter's R2 scope (lib/ only). *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Heap = Armvirt_engine.Heap
module Platform = Armvirt_core.Platform
module Observe = Armvirt_core.Observe
module Machine = Armvirt_arch.Machine
module Counter = Armvirt_stats.Counter
module Accounting = Armvirt_obs.Accounting
module Hypervisor = Armvirt_hypervisor.Hypervisor
module W = Armvirt_workloads
module Fleet = Armvirt_fleet

type kind = Engine_micro | Workload

let kind_to_string = function
  | Engine_micro -> "engine-micro"
  | Workload -> "workload"

type result = {
  name : string;
  kind : kind;
  events : int;  (** deterministic: same on every host *)
  wall_s : float;
  events_per_sec : float;
  exit_mix : (string * int) list;
      (** Per-reason exit-marker counts: which exits this
          benchmark's event volume is made of. Deterministic; empty for
          engine micros and for workloads whose hot path is modelled
          without world-switch markers. *)
}

(* [scale <= 0] is the CI smoke setting: same benches, ~50x fewer
   iterations, so the suite runs in well under a second. *)
let iters ~scale base = if scale <= 0 then max 1 (base / 50) else base * scale

(* Best-of-K: each benchmark runs [trials] times and reports its fastest
   run. Host scheduling noise only ever slows a run down, so the max is
   the least-noisy throughput estimate. CI smoke keeps a single trial. *)
let trials ~scale = if scale <= 0 then 1 else 3

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let finish ?(exit_mix = []) ~name ~kind ~events wall_s =
  {
    name;
    kind;
    events;
    wall_s;
    events_per_sec = float_of_int events /. wall_s;
    exit_mix;
  }

(* Build the whole scenario first, then time only [Sim.run]: setup cost
   (process spawning closures, mailbox records) is not event throughput. *)
let timed_run ~name sim =
  let before = Sim.events_processed sim in
  let (), wall_s = wall (fun () -> Sim.run sim) in
  finish ~name ~kind:Engine_micro ~events:(Sim.events_processed sim - before)
    wall_s

(* --- engine microbenchmarks ----------------------------------------- *)

(* Raw heap push/pop at a steady depth of 4096 pending events: the sift
   paths and the per-push allocation story, nothing else. Ops counted
   manually (one push + one pop = 2 events' worth of heap work). *)
let bench_heap_churn ~scale () =
  let ops = iters ~scale 400_000 in
  let depth = 4096 in
  let h = Heap.create () in
  for i = 0 to depth - 1 do
    Heap.push h ~time:(i * 7 land 1023) ~seq:i ()
  done;
  let seq = ref depth in
  let (), wall_s =
    wall (fun () ->
        (* min_time + pop_min is the engine's own pop sequence. *)
        for i = 1 to ops do
          let t = Heap.min_time h in
          ignore (Heap.pop_min h);
          Heap.push h ~time:(t + (i land 255)) ~seq:!seq ();
          incr seq
        done)
  in
  finish ~name:"heap-churn" ~kind:Engine_micro ~events:(2 * ops) wall_s

(* Empty-event churn: 512 processes, each a chain of short delays. Every
   event is a Delay expiry that does nothing but reschedule — the
   purest events/sec number the effect-handler engine can produce. *)
let bench_delay_churn ~scale () =
  let rounds = iters ~scale 1_500 in
  let procs = 512 in
  let sim = Sim.create () in
  for p = 0 to procs - 1 do
    Sim.spawn sim (fun () ->
        for i = 1 to rounds do
          Sim.delay (Cycles.of_int ((p + i) land 63))
        done)
  done;
  timed_run ~name:"delay-churn" sim

(* Park/wake storm: 2048 processes blocked in Signal.wait, broadcast
   awake each round. Exercises the blocked-process bookkeeping: the
   pid-indexed blocked set that keeps each wake O(1) in the parked count. *)
let bench_suspend_wake ~scale () =
  let rounds = iters ~scale 40 in
  let waiters = 2048 in
  let sim = Sim.create () in
  let s = Sim.Signal.create sim in
  for w = 0 to waiters - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "waiter-%04d" w)
      (fun () ->
        for _ = 1 to rounds do
          Sim.Signal.wait s
        done)
  done;
  Sim.spawn sim ~name:"waker" (fun () ->
      for _ = 1 to rounds do
        Sim.delay Cycles.one;
        Sim.Signal.notify s
      done);
  timed_run ~name:"suspend-wake" sim

(* FIFO semaphore contention: 256 processes sharing a capacity-4
   resource. Every acquire parks, every release wakes the next waiter. *)
let bench_resource ~scale () =
  let rounds = iters ~scale 250 in
  let procs = 256 in
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:4 in
  for p = 0 to procs - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "user-%03d" p)
      (fun () ->
        for _ = 1 to rounds do
          Sim.Resource.use r Cycles.one
        done)
  done;
  timed_run ~name:"resource-contend" sim

(* Mailbox ping-pong across 8 producer/consumer pairs. The consumer
   parks between messages, so sends alternate between the queued path
   and the direct-handoff path. *)
let bench_mailbox ~scale () =
  let msgs = iters ~scale 60_000 in
  let pairs = 8 in
  let sim = Sim.create () in
  for p = 0 to pairs - 1 do
    let mb = Sim.Mailbox.create ~name:(Printf.sprintf "mb-%d" p) sim in
    Sim.spawn sim
      ~name:(Printf.sprintf "producer-%d" p)
      (fun () ->
        for i = 1 to msgs do
          Sim.Mailbox.send mb i;
          if i land 3 = 0 then Sim.delay Cycles.one
        done);
    Sim.spawn sim
      ~name:(Printf.sprintf "consumer-%d" p)
      (fun () ->
        for _ = 1 to msgs do
          ignore (Sim.Mailbox.recv mb)
        done)
  done;
  timed_run ~name:"mailbox-pingpong" sim

(* --- whole workloads ------------------------------------------------ *)

(* Which world switches made up a run: sum the exit-marker counters the
   hypervisor models bump on every VM exit (the markers exist whether or
   not a tracing session is live — Machine.count always counts). *)
let exit_mix_of_counters set =
  List.fold_left
    (fun acc label ->
      match Accounting.parse_label label with
      | Some (Accounting.Exit { reason; _ }) ->
          let prev = try List.assoc reason acc with Not_found -> 0 in
          (reason, prev + Counter.get set label) :: List.remove_assoc reason acc
      | _ -> acc)
    [] (Counter.names set)

let merge_mix a b =
  List.sort compare
    (List.fold_left
       (fun acc (reason, n) ->
         let prev = try List.assoc reason acc with Not_found -> 0 in
         (reason, prev + n) :: List.remove_assoc reason acc)
       a b)

(* Workload runs are short next to the microbenchmarks, so they repeat
   on a fresh machine each iteration; only the runs themselves are
   timed (machine construction is not event throughput). *)
let repeat_workload ~name ~repeats run_once =
  let events = ref 0 and wall_acc = ref 0.0 and mix = ref [] in
  for _ = 1 to repeats do
    let hyp = Platform.hypervisor Platform.Arm_m400 Platform.Kvm in
    let sim = Machine.sim hyp.Hypervisor.machine in
    let before = Sim.events_processed sim in
    let (), w = wall (fun () -> run_once hyp) in
    events := !events + (Sim.events_processed sim - before);
    wall_acc := !wall_acc +. w;
    mix :=
      merge_mix !mix
        (exit_mix_of_counters (Machine.counters hyp.Hypervisor.machine))
  done;
  finish ~exit_mix:!mix ~name ~kind:Workload ~events:!events !wall_acc

(* The Table I microbenchmark suite on KVM ARM: the one workload whose
   hot path is built from marked world switches, so its exit_mix is the
   Figure 4-style breakdown (and the enabled-vs-disabled overhead trial
   below has real tracer work to measure). *)
let bench_micro_suite ~scale () =
  let iterations = if scale <= 0 then 4 else 128 * scale in
  let repeats = if scale <= 0 then 1 else 4 in
  repeat_workload ~name:"micro-suite" ~repeats (fun hyp ->
      ignore (W.Microbench.run ~iterations hyp))

(* Netperf TCP_RR on KVM ARM: the paper's latency workload, measured as
   engine events per host second (packet hops, trap sequences, timer
   events — everything the machine schedules). *)
let bench_netperf ~scale () =
  let transactions = if scale <= 0 then 40 else 2_000 * scale in
  let repeats = if scale <= 0 then 1 else 4 in
  repeat_workload ~name:"netperf-rr" ~repeats (fun hyp ->
      ignore (W.Netperf.run_tcp_rr ~transactions hyp))

(* Live migration on KVM ARM: pre-copy rounds under request load, the
   heaviest event mix in the repo (DMA dirtying + VCPU service + page
   shipping over the link). *)
let bench_migrate ~scale () =
  let plan =
    let d = Armvirt_migrate.Plan.default in
    if scale <= 0 then { d with Armvirt_migrate.Plan.max_rounds = 3 } else d
  in
  let repeats = if scale <= 0 then 1 else 12 * scale in
  repeat_workload ~name:"migrate-precopy" ~repeats (fun hyp ->
      ignore (W.Migration.run ~plan hyp))

(* Fleet boot-storm on KVM ARM: the quantum-stepped consolidation
   driver. Unlike the other workloads its event count is small (one
   engine event per host quantum) while each event does a full
   schedule-all-PCPUs pass, so events/sec here tracks scheduler pick
   cost at high VCPU counts, not raw engine dispatch. VM counts stay
   fixed across scales (64 and 256 are the product points the fleet
   subsystem is sized for); only repeats grow. *)
let bench_fleet_boot ~vms ~scale () =
  let repeats =
    if scale <= 0 then 1 else (if vms >= 256 then 2 else 8) * scale
  in
  let mix = [ (Fleet.Descriptor.synthetic, 1) ] in
  repeat_workload
    ~name:(Printf.sprintf "fleet-boot-storm-%d" vms)
    ~repeats
    (fun hyp ->
      ignore (Fleet.Scenario.boot_storm ~seed:42 hyp (Fleet.Descriptor.v ~vms mix)))

(* Cluster pairwise iperf matrix on KVM ARM over the two-host Pair
   topology: every frame crosses a virtual-switch port pair (and half of
   them an uplink), so events/sec here tracks the vswitch ingress/egress
   hot path plus the wire model, not raw engine dispatch. *)
let bench_cluster_matrix ~scale () =
  let chunks = if scale <= 0 then 2 else 16 * scale in
  let repeats = if scale <= 0 then 1 else 4 in
  repeat_workload ~name:"cluster-matrix" ~repeats (fun hyp ->
      ignore (W.Cluster.run_matrix ~chunks hyp))

(* Open-loop cluster load generation: Poisson arrivals fanned round-robin
   over a 16-backend pool through the switch fabric — the highest
   process-count workload in the repo (one server + one socket queue per
   backend, plus the per-request delivery processes). *)
let bench_cluster_loadgen ~scale () =
  let requests = if scale <= 0 then 40 else 400 * scale in
  let repeats = if scale <= 0 then 1 else 4 in
  repeat_workload ~name:"cluster-loadgen" ~repeats (fun hyp ->
      ignore (W.Cluster.run_loadgen ~seed:42 ~requests hyp))

(* --- suite ---------------------------------------------------------- *)

let best_of ~trials bench =
  let best = ref (bench ()) in
  for _ = 2 to trials do
    let r = bench () in
    if r.events_per_sec > !best.events_per_sec then best := r
  done;
  !best

let suite ~scale () =
  let trials = trials ~scale in
  List.map
    (fun bench -> best_of ~trials (fun () -> bench ~scale ()))
    [
      bench_heap_churn;
      bench_delay_churn;
      bench_suspend_wake;
      bench_resource;
      bench_mailbox;
      bench_micro_suite;
      bench_netperf;
      bench_migrate;
      bench_fleet_boot ~vms:64;
      bench_fleet_boot ~vms:256;
      bench_cluster_matrix;
      bench_cluster_loadgen;
    ]

(* --- observer overhead ---------------------------------------------- *)

type overhead = {
  bench : string;
  disabled_events_per_sec : float;
      (** This engine, no tracing session: the default everyone pays. *)
  enabled_events_per_sec : float option;
      (** Same bench under a live [Observe] session, run inside
          {!Observe.capture} so machine markers become tracer instants. *)
  enabled_overhead_pct : float option;
      (** [(disabled - enabled) / disabled * 100], from interleaved paired
          trials so host drift hits both arms equally. This is the gated
          number: heap-churn and delay-churn build no machines, so the
          accounting layer — live session included — must cost them under
          2% (structurally it costs zero; the budget absorbs pairing
          noise). micro-suite is all marked world switches and reports the
          genuine cost of tracing {e enabled}, informational. *)
}

let overhead_trial ~scale () =
  let trials = trials ~scale in
  let enabled_run ~scale bench =
    Observe.enable ~context:"bench-overhead" ();
    Fun.protect ~finally:Observe.disable (fun () ->
        let r, _cell =
          Observe.capture ~label:"bench-overhead#0.0" (fun () ->
              bench ~scale ())
        in
        r)
  in
  (* Run disabled/enabled as adjacent pairs and take the *median of the
     per-pair overheads*: within a pair the two arms run back to back, so
     slow host drift (throttling, co-tenant load) cancels out of each
     ratio instead of masquerading as observer overhead; the median then
     discards the odd pair where drift hit mid-pair. Best-of-each-arm
     would compare two different time windows and report their noise. *)
  let paired bench_name bench =
    let pairs = if scale <= 0 then 1 else max trials 7 in
    (* Longer runs than the throughput table (3x the iterations): each
       arm must outlast the host's scheduling jitter for the pair ratio
       to reflect the observer, not the scheduler. *)
    let oscale = if scale <= 0 then scale else 3 * scale in
    let ds = ref [] and es = ref [] and pcts = ref [] in
    for _ = 1 to pairs do
      let d = bench ~scale:oscale () in
      let e = enabled_run ~scale:oscale bench in
      ds := d :: !ds;
      es := e :: !es;
      pcts :=
        ((d.events_per_sec -. e.events_per_sec) /. d.events_per_sec *. 100.)
        :: !pcts
    done;
    let best rs =
      List.fold_left
        (fun acc (r : result) -> max acc r.events_per_sec)
        neg_infinity rs
    in
    let median xs =
      let a = List.sort compare xs in
      List.nth a (List.length a / 2)
    in
    {
      bench = bench_name;
      disabled_events_per_sec = best !ds;
      enabled_events_per_sec = Some (best !es);
      enabled_overhead_pct = Some (median !pcts);
    }
  in
  [
    paired "heap-churn" bench_heap_churn;
    paired "delay-churn" bench_delay_churn;
    paired "micro-suite" bench_micro_suite;
  ]

(* --- output --------------------------------------------------------- *)

let mix_to_string = function
  | [] -> "-"
  | mix ->
      String.concat " "
        (List.map (fun (reason, n) -> Printf.sprintf "%s:%d" reason n) mix)

let pp_table ppf results =
  Format.fprintf ppf
    "Events/sec: engine microbenchmarks and whole-workload throughput@.";
  Format.fprintf ppf "  %-18s %-13s %10s %9s %14s  %s@." "benchmark" "kind"
    "events" "wall s" "events/sec" "exit mix";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-18s %-13s %10d %9.3f %14.0f  %s@." r.name
        (kind_to_string r.kind) r.events r.wall_s r.events_per_sec
        (mix_to_string r.exit_mix))
    results

let pp_overhead ppf rows =
  Format.fprintf ppf
    "Observer overhead (paired trials; heap-churn/delay-churn budget: \
     en ovh%% < 2%%)@.";
  Format.fprintf ppf "  %-12s %14s %14s %10s@." "bench" "disabled ev/s"
    "enabled ev/s" "en ovh%";
  let opt fmt = function Some v -> Printf.sprintf fmt v | None -> "-" in
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-12s %14.0f %14s %10s@." o.bench
        o.disabled_events_per_sec
        (opt "%.0f" o.enabled_events_per_sec)
        (opt "%+.2f" o.enabled_overhead_pct))
    rows

(* BENCH_events.json, schema v3: per-result name, kind, events, wall
   seconds, events/sec and "exit_mix" object, plus a top-level
   "observer_overhead" array of paired enabled-vs-disabled trials. Every
   number is measured in this run: wall-clock rates from another host
   are not comparable, so none are recorded. Hand-rolled
   emitter: the repo carries no JSON dependency, and the format below is
   the schema's one source of truth (mirrored in README and validated by
   CI + test_engine). *)
let emit_json ppf ~scale ~overhead results =
  let opt_float = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "null"
  in
  let opt_ratio = function
    | Some v -> Printf.sprintf "%.3f" v
    | None -> "null"
  in
  let str s = "\"" ^ Armvirt_obs.Codec.escape_json s ^ "\"" in
  let mix_json mix =
    "{"
    ^ String.concat ", "
        (List.map
           (fun (reason, n) -> Printf.sprintf "%s: %d" (str reason) n)
           mix)
    ^ "}"
  in
  Format.fprintf ppf "{@.";
  Format.fprintf ppf "  \"schema\": \"armvirt.bench-events/v3\",@.";
  Format.fprintf ppf "  \"scale\": %d,@." scale;
  Format.fprintf ppf "  \"results\": [@.";
  let n = List.length results in
  List.iteri
    (fun i r ->
      Format.fprintf ppf
        "    {\"name\": %s, \"kind\": %s, \"events\": %d, \"wall_s\": %.6f, \
         \"events_per_sec\": %.1f, \"exit_mix\": %s}%s@."
        (str r.name) (str (kind_to_string r.kind)) r.events r.wall_s r.events_per_sec
        (mix_json r.exit_mix)
        (if i = n - 1 then "" else ","))
    results;
  Format.fprintf ppf "  ],@.";
  Format.fprintf ppf "  \"observer_overhead\": [@.";
  let n = List.length overhead in
  List.iteri
    (fun i o ->
      Format.fprintf ppf
        "    {\"bench\": %s, \"disabled_events_per_sec\": %.1f, \
         \"enabled_events_per_sec\": %s, \"enabled_overhead_pct\": %s}%s@."
        (str o.bench) o.disabled_events_per_sec
        (opt_float o.enabled_events_per_sec)
        (opt_ratio o.enabled_overhead_pct)
        (if i = n - 1 then "" else ","))
    overhead;
  Format.fprintf ppf "  ]@.";
  Format.fprintf ppf "}@."
