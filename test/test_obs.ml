(* Tests for Armvirt_obs (ring, spans, tracer, exporters) and the
   Observe/Runner tracing glue: a golden file for the Chrome format,
   exit-latency histogram buckets, export determinism across --jobs
   levels, and the traced-off = seed invariant. *)

module Ring = Armvirt_obs.Ring
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting
module Marker = Armvirt_arch.Marker
module Esr = Armvirt_arch.Esr
module Observe = Armvirt_core.Observe
module Runner = Armvirt_core.Runner
module Platform = Armvirt_core.Platform
module Machine = Armvirt_arch.Machine
module Sim = Armvirt_engine.Sim
module W = Armvirt_workloads

(* --- Ring ---------------------------------------------------------- *)

let test_ring_unbounded_chronological () =
  let r = Ring.create () in
  for i = 1 to 1000 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 1000 (Ring.length r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" (List.init 1000 (fun i -> i + 1))
    (Ring.to_list r)

let test_ring_capped_drops_oldest () =
  let r = Ring.create ~capacity:4 () in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check int) "length at cap" 4 (Ring.length r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "keeps newest, in order" [ 7; 8; 9; 10 ]
    (Ring.to_list r)

let test_ring_clear_and_reuse () =
  let r = Ring.create ~capacity:2 () in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Ring.clear r;
  Alcotest.(check int) "empty" 0 (Ring.length r);
  Alcotest.(check int) "drop counter reset" 0 (Ring.dropped r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let test_ring_rejects_zero_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity < 1") (fun () ->
      ignore (Ring.create ~capacity:0 ()))

(* --- Span classification ------------------------------------------- *)

let test_span_of_label () =
  let check label expect =
    Alcotest.(check string) label
      (Span.category_to_string expect)
      (Span.category_to_string (Span.of_label label))
  in
  check "kvm_arm.vcpu_resume" Span.Vmexit;
  check "arm.hvc_to_el2" Span.Trap;
  check "netperf.irq_delivery" Span.Irq;
  check "netperf.host_rx_path" Span.Io;
  check "coldstart.page_map" Span.Stage2;
  check "xen_arm.dom0_upcall" Span.Vmexit;
  check "completely.unknown" Span.Other

let test_span_category_roundtrip () =
  List.iter
    (fun c ->
      match Span.category_of_string (Span.category_to_string c) with
      | Some c' ->
          Alcotest.(check string) "roundtrip"
            (Span.category_to_string c)
            (Span.category_to_string c')
      | None -> Alcotest.fail "category_of_string failed on its own output")
    Span.all

(* --- Tracer -------------------------------------------------------- *)

(* A span nested in another finishes first, so it is recorded first;
   the exporter still puts the parent before its child. *)
let test_tracer_nesting () =
  let t = Tracer.create () in
  Tracer.complete t ~track:"p" ~cat:Span.Io ~name:"inner" ~ts:20 ~dur:10;
  Tracer.complete t ~track:"p" ~cat:Span.Sched ~name:"outer" ~ts:10 ~dur:40;
  Alcotest.(check (list string)) "recording order (completion)"
    [ "inner"; "outer" ]
    (List.map (fun e -> e.Span.name) (Tracer.events t));
  let rows =
    Format.asprintf "%a" Export.csv
      [ { Export.pid = 0; name = "c"; events = Tracer.events t; dropped = 0 } ]
    |> String.split_on_char '\n'
  in
  Alcotest.(check (list string)) "exported parent first"
    [ "0,c,1,p,10,40,sched,outer,"; "0,c,1,p,20,10,io,inner," ]
    [ List.nth rows 1; List.nth rows 2 ]

let test_tracer_tracks_are_independent () =
  let t = Tracer.create () in
  Tracer.complete t ~track:"a" ~cat:Span.Sched ~name:"x" ~ts:0 ~dur:7;
  Tracer.instant t ~track:"b" ~cat:Span.Sched ~name:"y" ~ts:5;
  Tracer.complete t ~track:"a" ~cat:Span.Sched ~name:"z" ~ts:7 ~dur:1;
  let on track =
    List.filter_map
      (fun e -> if e.Span.track = track then Some e.Span.name else None)
      (Tracer.events t)
  in
  Alcotest.(check (list string)) "track a" [ "x"; "z" ] (on "a");
  Alcotest.(check (list string)) "track b" [ "y" ] (on "b")

(* --- Trace: a machine's spends through Observe.trace_machine -------- *)

let test_trace_records_spends () =
  let sim = Sim.create () in
  let machine =
    Machine.create sim
      ~cost:(Armvirt_arch.Cost_model.Arm Armvirt_arch.Cost_model.arm_default)
      ~num_cpus:2
  in
  let tracer = Tracer.create () in
  let marker = Armvirt_arch.Marker.op ~hyp:"test" "marker" in
  Observe.trace_machine tracer machine;
  Sim.spawn sim ~name:"worker" (fun () ->
      Machine.spend machine "step.a" 100;
      Machine.count machine marker;
      Machine.spend machine "step.b" 50;
      Machine.spend machine "step.a" 25);
  Sim.run sim;
  let events = Tracer.events tracer in
  Alcotest.(check (list (pair string int))) "spans and instants, in order"
    [ ("step.a", 0); ("test.marker", 100); ("step.b", 100); ("step.a", 150) ]
    (List.map (fun e -> (e.Span.name, e.Span.ts)) events);
  Alcotest.(check string) "ledger"
    "         100  +100    step.a\n\
    \         150  +50     step.b\n\
    \         175  +25     step.a\n"
    (Format.asprintf "%a" Observe.pp_ledger events);
  (* Clearing both slots stops recording. *)
  Machine.observe machine None;
  Machine.observe_count machine None;
  Sim.spawn sim ~name:"worker2" (fun () ->
      Machine.spend machine "step.c" 10;
      Machine.count machine marker);
  Sim.run sim;
  Alcotest.(check int) "no longer recording" 4
    (List.length (Tracer.events tracer))

(* [events] must stay chronological and preserve recording order
   exactly, even for many events with identical timestamps. *)
let test_trace_events_chronological () =
  let t = Tracer.create () in
  for i = 0 to 999 do
    Tracer.complete t ~track:"cpu" ~cat:Span.Other
      ~name:(Printf.sprintf "op%d" i) ~ts:7 ~dur:1
  done;
  Alcotest.(check (list string)) "recording order preserved"
    (List.init 1000 (Printf.sprintf "op%d"))
    (List.map (fun e -> e.Span.name) (Tracer.events t))

let test_trace_by_label_tie_break () =
  let t = Tracer.create () in
  (* Recorded in an order a Hashtbl fold would not preserve: equal
     totals must come out sorted by label. *)
  List.iter
    (fun name ->
      Tracer.complete t ~track:"cpu" ~cat:Span.Other ~name ~ts:0 ~dur:10)
    [ "zeta"; "alpha"; "mid" ];
  let out =
    Format.asprintf "%a" Export.summary
      [ { Export.pid = 0; name = "c"; events = Tracer.events t; dropped = 0 } ]
  in
  let rows =
    String.split_on_char '\n' out
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | name :: _ when List.mem name [ "alpha"; "mid"; "zeta" ] -> Some name
           | _ -> None)
  in
  Alcotest.(check (list string)) "ties sorted by label"
    [ "alpha"; "mid"; "zeta" ] rows

(* --- Exit-latency histograms ---------------------------------------- *)

(* Accounting's log2 histograms are the one histogram type left. Each
   [Some l] is an hvc exit re-entered [l] cycles later on PCPU 0's cpu
   track; [None] is an exit that never re-enters. [None] when the trace
   has no exit at all. *)
let latency_hist lats =
  let marker ts (m : Marker.t) =
    let name = (m :> string) in
    { Span.ts; track = "cpu"; cat = Span.of_label name; name; kind = Span.Instant }
  in
  let exit_ = Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:0 in
  let entry = Marker.entry ~hyp:"kvm_arm" ~pcpu:0 () in
  let _, events =
    List.fold_left
      (fun (t, acc) -> function
        | None -> (t + 1, marker t exit_ :: acc)
        | Some l -> (t + l + 1, marker (t + l) entry :: marker t exit_ :: acc))
      (0, []) lats
  in
  let p = { Export.pid = 0; name = "h"; events = List.rev events; dropped = 0 } in
  match (Accounting.of_processes [ p ]).Accounting.vms with
  | [] -> None
  | [ { Accounting.exits = [ (_, _, h) ]; _ } ] -> Some h
  | _ -> Alcotest.fail "expected one machine with one exit reason"

(* An exit that never re-enters is counted but leaves no latency sample;
   a latency exactly on a power of two stays in that bucket, one more
   spills into the next. *)
let test_histogram_errors () =
  match latency_hist [ Some 3; None; Some 1024; Some 1025; Some 0 ] with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "unpaired exit not sampled" 4 h.Accounting.count;
      Alcotest.(check int) "nor summed" 2052 h.Accounting.sum;
      Alcotest.(check (list (pair int int)))
        "bucket assignment"
        [ (1, 1); (4, 1); (1024, 1); (2048, 1) ]
        h.Accounting.buckets

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram count equals additions"
    QCheck.(list small_nat)
    (fun lats ->
      match latency_hist (List.map Option.some lats) with
      | None -> lats = []
      | Some h ->
          h.Accounting.count = List.length lats
          && List.fold_left (fun acc (_, n) -> acc + n) 0 h.Accounting.buckets
             = List.length lats)

(* --- Golden: Chrome trace JSON ------------------------------------- *)

let chrome_sample () =
  [
    {
      Export.pid = 0;
      name = "cell-a";
      dropped = 1;
      events =
        [
          (* Recorded out of start order and with a tie at ts=0: the
             exporter must sort by (ts, dur desc, recording order). *)
          {
            Span.ts = 5;
            track = "cpu";
            cat = Span.Io;
            name = "tx";
            kind = Span.Complete 3;
          };
          {
            Span.ts = 0;
            track = "cpu";
            cat = Span.Vmexit;
            name = "inner";
            kind = Span.Complete 2;
          };
          {
            Span.ts = 0;
            track = "cpu";
            cat = Span.Sched;
            name = "outer";
            kind = Span.Complete 10;
          };
          {
            Span.ts = 2;
            track = "worker";
            cat = Span.Sched;
            name = "spawn";
            kind = Span.Instant;
          };
          {
            Span.ts = 4;
            track = "mb:inbox";
            cat = Span.Io;
            name = "inbox";
            kind = Span.Value 2;
          };
        ];
    };
  ]

let chrome_golden =
  "{\"traceEvents\":[\n\
   {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cell-a\",\"dropped_events\":1}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"mb:inbox\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"worker\"}},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"cat\":\"sched\",\"name\":\"outer\",\"dur\":10},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"cat\":\"vmexit\",\"name\":\"inner\",\"dur\":2},\n\
   {\"ph\":\"i\",\"pid\":0,\"tid\":3,\"ts\":2,\"cat\":\"sched\",\"name\":\"spawn\",\"s\":\"t\"},\n\
   {\"ph\":\"C\",\"pid\":0,\"tid\":2,\"ts\":4,\"cat\":\"io\",\"name\":\"inbox\",\"args\":{\"value\":2}},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":5,\"cat\":\"io\",\"name\":\"tx\",\"dur\":3}\n\
   ],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles (1 exported us = 1 cycle)\"}}\n"

let test_chrome_golden () =
  Alcotest.(check string) "chrome trace output" chrome_golden
    (Format.asprintf "%a" Export.chrome (chrome_sample ()))

let test_csv_export () =
  let lines =
    Format.asprintf "%a" Export.csv (chrome_sample ())
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check string) "header" "pid,process,tid,track,ts,dur,cat,name,value"
    (List.hd lines);
  Alcotest.(check int) "one row per event" 6 (List.length lines);
  Alcotest.(check string) "outer span row first" "0,cell-a,1,cpu,0,10,sched,outer,"
    (List.nth lines 1)

(* Position of the first occurrence of [needle] in [s], or -1. *)
let index_of s needle =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then -1
    else if String.sub s i n = needle then i
    else go (i + 1)
  in
  go 0

let test_summary_export () =
  let out = Format.asprintf "%a" Export.summary (chrome_sample ()) in
  (* sched (10) > io (3) > vmexit (2); instants and values contribute no
     cycles. Categories print in descending cycle order. *)
  Alcotest.(check bool) "mentions total" true (index_of out "total" >= 0);
  let sched_pos = index_of out "sched" and io_pos = index_of out "\nio" in
  Alcotest.(check bool) "sched listed" true (sched_pos >= 0);
  Alcotest.(check bool) "io listed" true (io_pos >= 0);
  Alcotest.(check bool) "sched ranked before io" true (sched_pos < io_pos)

(* --- Observe + Runner: export determinism across jobs --------------- *)

let run_traced_cells ~jobs =
  Observe.enable ~context:"t" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let results =
        Runner.map ~jobs
          (fun i ->
            let m = Platform.machine Platform.Arm_m400 in
            let sim = Machine.sim m in
            Sim.spawn sim ~name:"w" (fun () ->
                Machine.spend m "vmexit.entry" (100 * (i + 1));
                Machine.spend m "netperf.tx_path" 50);
            Sim.run sim;
            i)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let trace =
        Format.asprintf "%a" Export.chrome (Observe.processes ())
      in
      (results, trace))

let test_export_deterministic_across_jobs () =
  let r1, t1 = run_traced_cells ~jobs:1 in
  let r4, t4 = run_traced_cells ~jobs:4 in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3; 4; 5 ] r1;
  Alcotest.(check (list int)) "parallel results identical" r1 r4;
  Alcotest.(check string) "chrome export byte-identical" t1 t4;
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length t1 > 500)

let test_cell_labels_in_input_order () =
  Observe.enable ~context:"lbl" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      ignore (Runner.map ~jobs:4 (fun i -> i) [ 10; 20; 30 ]);
      let labels = List.map (fun c -> c.Observe.label) (Observe.cells ()) in
      Alcotest.(check (list string)) "labels"
        [ "lbl#0.0"; "lbl#0.1"; "lbl#0.2" ]
        labels)

(* --- No-observer overhead: traced-off runs match the seed ----------- *)

let test_tracing_does_not_change_results () =
  let untraced = W.Netperf.run_tcp_rr (Platform.hypervisor Arm_m400 Kvm) in
  Observe.enable ~context:"rr" ();
  let traced, cell =
    Fun.protect ~finally:Observe.disable (fun () ->
        Observe.capture ~label:"rr#0.0" (fun () ->
            W.Netperf.run_tcp_rr (Platform.hypervisor Arm_m400 Kvm)))
  in
  Alcotest.(check (float 0.0)) "trans/s identical"
    untraced.W.Netperf.trans_per_sec traced.W.Netperf.trans_per_sec;
  Alcotest.(check (float 0.0)) "us/trans identical"
    untraced.W.Netperf.time_per_trans_us traced.W.Netperf.time_per_trans_us;
  match cell with
  | Some c ->
      Alcotest.(check bool) "cell recorded events" true
        (List.length c.Observe.events > 0)
  | None -> Alcotest.fail "capture returned no cell"

let test_untraced_capture_is_transparent () =
  (* No session: capture must run the thunk untouched and return no cell. *)
  let v, cell = Observe.capture ~label:"x" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "no cell" true (cell = None)

(* --- Mailbox depth through the tracer glue -------------------------- *)

let test_mailbox_depth_value_events () =
  (* Same wiring Observe uses: on_queue_depth -> Tracer.value. A direct
     send-to-parked-receiver hand-off bypasses the queue, so it must
     leave no Value event behind (it used to re-report the unchanged
     depth); only the enqueue and the later dequeue appear. *)
  let sim = Sim.create () in
  let tracer = Tracer.create () in
  Sim.set_observer sim
    (Some
       {
         Sim.on_spawn = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_park = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_wake = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_contention = (fun ~resource:_ ~proc:_ ~at:_ ~waited:_ -> ());
         on_queue_depth =
           (fun ~mailbox ~at ~depth ->
             Tracer.value tracer ~track:("mb:" ^ mailbox) ~cat:Span.Io
               ~name:mailbox ~ts:at ~value:depth);
       });
  let mb = Sim.Mailbox.create ~name:"inbox" sim in
  Sim.spawn sim ~name:"consumer" (fun () ->
      ignore (Sim.Mailbox.recv mb);
      (* parked: direct handoff resumes it at t=1 *)
      Sim.delay (Armvirt_engine.Cycles.of_int 10);
      ignore (Sim.Mailbox.recv mb) (* dequeues at t=11: depth 0 *));
  Sim.spawn sim ~name:"producer" (fun () ->
      Sim.delay Armvirt_engine.Cycles.one;
      Sim.Mailbox.send mb 1;
      (* handoff: no event *)
      Sim.Mailbox.send mb 2 (* enqueued: depth 1 *));
  Sim.run sim;
  let values =
    List.filter_map
      (fun e ->
        match e.Span.kind with Span.Value v -> Some (e.Span.ts, v) | _ -> None)
      (Tracer.events tracer)
  in
  Alcotest.(check (list (pair int int)))
    "only queue transitions traced"
    [ (1, 1); (11, 0) ]
    values

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "unbounded chronological" `Quick
            test_ring_unbounded_chronological;
          Alcotest.test_case "capped drops oldest" `Quick
            test_ring_capped_drops_oldest;
          Alcotest.test_case "clear and reuse" `Quick test_ring_clear_and_reuse;
          Alcotest.test_case "rejects zero capacity" `Quick
            test_ring_rejects_zero_capacity;
        ] );
      ( "span",
        [
          Alcotest.test_case "of_label" `Quick test_span_of_label;
          Alcotest.test_case "category roundtrip" `Quick
            test_span_category_roundtrip;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "tracks independent" `Quick
            test_tracer_tracks_are_independent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records spends" `Quick test_trace_records_spends;
          Alcotest.test_case "events chronological" `Quick
            test_trace_events_chronological;
          Alcotest.test_case "by_label tie-break" `Quick
            test_trace_by_label_tie_break;
        ] );
      ( "histogram",
        [ Alcotest.test_case "errors" `Quick test_histogram_errors ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_histogram_total ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "csv" `Quick test_csv_export;
          Alcotest.test_case "summary" `Quick test_summary_export;
        ] );
      ( "observe",
        [
          Alcotest.test_case "export deterministic across jobs" `Quick
            test_export_deterministic_across_jobs;
          Alcotest.test_case "cell labels in input order" `Quick
            test_cell_labels_in_input_order;
          Alcotest.test_case "tracing does not change results" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "mailbox depth value events" `Quick
            test_mailbox_depth_value_events;
          Alcotest.test_case "untraced capture transparent" `Quick
            test_untraced_capture_is_transparent;
        ] );
    ]
