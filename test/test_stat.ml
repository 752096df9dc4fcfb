(* `armvirt stat` and its accounting layer: marker grammar, exit/entry
   pairing, lane attribution, renderer golden output, jobs-invariance,
   RFC 4180 CSV escaping, the trace-vs-analytic crosscheck, the
   snapshot diff used for regression gating, and the JSON/CSV codec
   they all share. *)

module Span = Armvirt_obs.Span
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting
module Stat = Armvirt_obs.Stat
module Codec = Armvirt_obs.Codec
module Observe = Armvirt_core.Observe
module Runner = Armvirt_core.Runner
module Platform = Armvirt_core.Platform
module Stat_report = Armvirt_core.Stat_report
module W = Armvirt_workloads
module Marker = Armvirt_arch.Marker
module Esr = Armvirt_arch.Esr
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Counter = Armvirt_stats.Counter

let label (m : Marker.t) = (m :> string)

(* --- marker grammar -------------------------------------------------- *)

let test_parse_label () =
  let exit_l = label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:4) in
  Alcotest.(check string) "exit label" "kvm_arm.exit/hvc/p4" exit_l;
  (match Accounting.parse_label exit_l with
  | Some (Accounting.Exit { hyp; reason; pcpu }) ->
      Alcotest.(check string) "hyp" "kvm_arm" hyp;
      Alcotest.(check string) "reason" "hvc" reason;
      Alcotest.(check int) "pcpu" 4 pcpu
  | _ -> Alcotest.fail "exit label did not parse as Exit");
  let entry_l = label (Marker.entry ~domid:0 ~hyp:"xen_arm" ~pcpu:5 ()) in
  Alcotest.(check string) "entry label" "xen_arm.entry/p5/d0" entry_l;
  (match Accounting.parse_label entry_l with
  | Some (Accounting.Entry { hyp; pcpu; domid }) ->
      Alcotest.(check string) "hyp" "xen_arm" hyp;
      Alcotest.(check int) "pcpu" 5 pcpu;
      Alcotest.(check (option int)) "domid" (Some 0) domid
  | _ -> Alcotest.fail "entry label did not parse as Entry");
  (match Accounting.parse_label "kvm_arm.vipi" with
  | Some (Accounting.Op { hyp; op }) ->
      Alcotest.(check string) "op hyp" "kvm_arm" hyp;
      Alcotest.(check string) "op name" "vipi" op
  | _ -> Alcotest.fail "dotted non-marker label should be an Op");
  Alcotest.(check bool)
    "dot-free labels are not markers" true
    (Accounting.parse_label "spawn" = None);
  (* The builders render the committed goldens' row keys byte for byte. *)
  List.iter
    (fun (expected, m) -> Alcotest.(check string) expected expected (label m))
    [
      ("kvm_x86.entry/p0", Marker.entry ~hyp:"kvm_x86" ~pcpu:0 ());
      ("kvm_arm.hypercall", Marker.op ~hyp:"kvm_arm" "hypercall");
      ("vswitch.s0/p4/rx", Marker.port ~switch:"s0" ~port:4 Marker.Rx);
      ("vswitch.s0/flood", Marker.flood ~switch:"s0");
      ("wire.s0-u1/tx", Marker.uplink ~switch:"s0" ~uplink:1 Marker.Tx);
    ];
  Alcotest.check_raises "hypervisor must be an identifier"
    (Invalid_argument
       "Marker: hypervisor \"Bad.Hyp\" is not a lowercase identifier")
    (fun () -> ignore (Marker.entry ~hyp:"Bad.Hyp" ~pcpu:0 ()));
  Alcotest.check_raises "an op cannot smuggle in an exit"
    (Invalid_argument "Marker.op: \"exit/hvc/p0\" must match [a-z0-9_]+")
    (fun () -> ignore (Marker.op ~hyp:"kvm_arm" "exit/hvc/p0"));
  Alcotest.check_raises "uplinks have no drop counter"
    (Invalid_argument "Marker.uplink: wires carry rx/tx only")
    (fun () -> ignore (Marker.uplink ~switch:"s0" ~uplink:0 Marker.Drop))

(* Every builder's label parses back into the constructor and fields it
   was built from: the stat report cannot silently lose a row. *)
let prop_marker_round_trip =
  let open QCheck.Gen in
  let ident =
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'z')
      (string_size (0 -- 7)
         ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9'; return '_' ]))
  in
  let op_name =
    string_size (1 -- 8)
      ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9'; return '_' ])
  in
  let index = oneof [ small_nat; int_bound 1_000_000_000 ] in
  let dir_name = function
    | Marker.Rx -> "rx"
    | Marker.Tx -> "tx"
    | Marker.Drop -> "drop"
  in
  let built =
    oneof
      [
        map3
          (fun hyp reason pcpu ->
            ( Marker.exit ~hyp ~reason ~pcpu,
              Accounting.Exit { hyp; reason = Esr.short_name reason; pcpu } ))
          ident (oneofl Esr.all) index;
        map3
          (fun hyp pcpu domid ->
            ( Marker.entry ?domid ~hyp ~pcpu (),
              Accounting.Entry { hyp; pcpu; domid } ))
          ident index (opt index);
        map2
          (fun hyp op -> (Marker.op ~hyp op, Accounting.Op { hyp; op }))
          ident op_name;
        map3
          (fun switch port dir ->
            ( Marker.port ~switch ~port dir,
              Accounting.Op
                {
                  hyp = "vswitch";
                  op = Printf.sprintf "%s/p%d/%s" switch port (dir_name dir);
                } ))
          ident index
          (oneofl [ Marker.Rx; Marker.Tx; Marker.Drop ]);
        map
          (fun switch ->
            ( Marker.flood ~switch,
              Accounting.Op { hyp = "vswitch"; op = switch ^ "/flood" } ))
          ident;
        map3
          (fun switch uplink dir ->
            ( Marker.uplink ~switch ~uplink dir,
              Accounting.Op
                {
                  hyp = "wire";
                  op = Printf.sprintf "%s-u%d/%s" switch uplink (dir_name dir);
                } ))
          ident index
          (oneofl [ Marker.Rx; Marker.Tx ]);
      ]
  in
  QCheck.Test.make ~count:2000 ~name:"marker round-trip"
    (QCheck.make ~print:(fun (m, _) -> label m) built)
    (fun (m, expected) -> Accounting.parse_label (label m) = Some expected)

(* --- synthetic trace for pairing/lanes/renderers --------------------- *)

let ev ts name kind =
  (* Track "cpu" is machine "m0"; secondary machines are "m<N>:cpu". *)
  { Span.ts; track = "cpu"; cat = Span.of_label name; name; kind }

(* Two hvc exits on PCPU 4; only the first re-enters (latency 600), the
   second is still pending when the trace ends. One guest span and one
   hypervisor span feed the attribution lanes. *)
let synthetic_process =
  {
    Export.pid = 0;
    name = "cell#0.0";
    dropped = 0;
    events =
      [
        ev 100
          (label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:4))
          Span.Instant;
        ev 150 "kvm_arm.host_dispatch" (Span.Complete 300);
        ev 700
          (label (Marker.entry ~hyp:"kvm_arm" ~pcpu:4 ()))
          Span.Instant;
        ev 800 "vm_processing" (Span.Complete 500);
        ev 1400
          (label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:4))
          Span.Instant;
        ev 1450 "kvm_arm.vipi" Span.Instant;
      ];
  }

let synthetic_accounting () = Accounting.of_processes [ synthetic_process ]

let test_pairing_and_lanes () =
  let acct = synthetic_accounting () in
  let vm =
    match acct.Accounting.vms with
    | [ vm ] -> vm
    | vms ->
        Alcotest.failf "expected one vm_stats row, got %d" (List.length vms)
  in
  Alcotest.(check string) "machine" "m0" vm.Accounting.machine;
  Alcotest.(check string) "hyp" "kvm_arm" vm.Accounting.hyp;
  Alcotest.(check int) "entries" 1 vm.Accounting.entries;
  (match vm.Accounting.exits with
  | [ ("hvc", 2, hist) ] ->
      Alcotest.(check int) "latency samples" 1 hist.Accounting.count;
      Alcotest.(check int) "latency sum" 600 hist.Accounting.sum;
      Alcotest.(check int) "latency min" 600 hist.Accounting.min;
      Alcotest.(check int) "latency max" 600 hist.Accounting.max;
      Alcotest.(check (list (pair int int)))
        "log2 bucket: 600 lands at bound 1024" [ (1024, 1) ]
        hist.Accounting.buckets
  | _ -> Alcotest.fail "expected exactly [hvc x2]");
  Alcotest.(check (list (pair string int)))
    "ops" [ ("vipi", 1) ] vm.Accounting.ops;
  Alcotest.(check int) "guest cycles" 500 vm.Accounting.guest_cycles;
  Alcotest.(check int) "hypervisor cycles" 300 vm.Accounting.hyp_cycles;
  Alcotest.(check int) "total exits" 2 acct.Accounting.total_exits

let test_lane_rules () =
  List.iter
    (fun (label, expect) ->
      Alcotest.(check string)
        label
        (Accounting.lane_to_string expect)
        (Accounting.lane_to_string (Accounting.lane_of_label label)))
    [
      ("vm_processing", Accounting.Guest);
      ("native_server", Accounting.Guest);
      ("guest_compute", Accounting.Guest);
      ("kvm_arm.virq_complete", Accounting.Guest);
      ("eoi_vapic", Accounting.Guest);
      ("kvm_arm.host_dispatch", Accounting.Hypervisor);
      ("trap_to_el2", Accounting.Hypervisor);
      ("xen.switch", Accounting.Hypervisor);
    ]

(* --- renderer goldens ------------------------------------------------ *)

let render render_fn =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  render_fn fmt (synthetic_accounting ());
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The armvirt.stat/v1 document for the synthetic trace, verbatim. If
   this changes shape, bump the schema string and the diff loader. *)
let golden_json =
  {|{
  "schema": "armvirt.stat/v1",
  "context": "golden",
  "vms": [
    {"cell": "cell#0.0", "machine": "m0", "hyp": "kvm_arm",
     "entries": 1,
     "exits": [{"reason": "hvc", "count": 2, "latency": {"count": 1, "sum": 600, "min": 600, "max": 600, "buckets": [[1024, 1]]}}],
     "ops": [{"op": "vipi", "count": 1}],
     "attribution": {"guest": 500, "hypervisor": 300}}
  ],
  "totals": {"guest": 500, "hypervisor": 300, "exits": 2}
}
|}

let test_golden_json () =
  let got = render (Stat.render_json ~context:"golden") in
  Alcotest.(check string) "armvirt.stat/v1 golden" golden_json got;
  match Codec.parse_json got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "golden JSON does not re-parse: %s" e

let test_csv_render () =
  let got = render (Stat.render_csv ~context:"golden") in
  let lines = String.split_on_char '\n' got in
  Alcotest.(check string)
    "header" "kind,cell,machine,hyp,pcpu,name,count,lat_count,lat_sum,lat_min,lat_max"
    (List.hd lines);
  Alcotest.(check bool)
    "exit row present" true
    (List.exists
       (fun l -> l = "exit,cell#0.0,m0,kvm_arm,all,hvc,2,1,600,600,600")
       lines)

(* --- per-domain entry accounting (fleet traces) ----------------------- *)

(* A fleet-style trace: every entry marker carries d<domid>. Two guests
   time-share PCPU 0; a second entry for d0 lands on PCPU 1 with no
   pending exit, so it counts but contributes no latency sample. *)
let fleet_process =
  {
    Export.pid = 0;
    name = "fleet#0.0";
    dropped = 0;
    events =
      [
        ev 100
          (label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:0))
          Span.Instant;
        ev 200
          (label (Marker.entry ~domid:0 ~hyp:"kvm_arm" ~pcpu:0 ()))
          Span.Instant;
        ev 300
          (label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Irq ~pcpu:0))
          Span.Instant;
        ev 350
          (label (Marker.entry ~domid:1 ~hyp:"kvm_arm" ~pcpu:0 ()))
          Span.Instant;
        ev 400
          (label (Marker.entry ~domid:0 ~hyp:"kvm_arm" ~pcpu:1 ()))
          Span.Instant;
      ];
  }

let render_process ?opts p =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ?opts ~context:"fleet-golden" fmt
    (Accounting.of_processes [ p ]);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let per_domain_opts = { Stat.default_options with Stat.per_domain = true }

(* Verbatim armvirt.stat/v1 with --per-domain: the one place the
   per_domain member may appear. *)
let fleet_golden_json =
  {|{
  "schema": "armvirt.stat/v1",
  "context": "fleet-golden",
  "vms": [
    {"cell": "fleet#0.0", "machine": "m0", "hyp": "kvm_arm",
     "entries": 3,
     "per_domain": [{"domid": 0, "entries": 2}, {"domid": 1, "entries": 1}],
     "exits": [{"reason": "hvc", "count": 1, "latency": {"count": 1, "sum": 100, "min": 100, "max": 100, "buckets": [[128, 1]]}}, {"reason": "irq", "count": 1, "latency": {"count": 1, "sum": 50, "min": 50, "max": 50, "buckets": [[64, 1]]}}],
     "ops": [],
     "attribution": {"guest": 0, "hypervisor": 0}}
  ],
  "totals": {"guest": 0, "hypervisor": 0, "exits": 2}
}
|}

let contains_substring haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_per_domain_golden () =
  let got = render_process ~opts:per_domain_opts fleet_process in
  Alcotest.(check string) "per-domain golden" fleet_golden_json got;
  (match Codec.parse_json got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "per-domain golden does not re-parse: %s" e);
  (* Without the opt-in, the document must not grow the member — the
     pre-fleet golden above depends on it. *)
  let default = render_process fleet_process in
  Alcotest.(check bool)
    "per_domain absent by default" false
    (contains_substring default "per_domain")

let test_per_domain_diff () =
  let old_doc = render_process ~opts:per_domain_opts fleet_process in
  (match Stat.diff old_doc old_doc with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "self-diff found %d findings" (List.length fs)
  | Error e -> Alcotest.failf "self-diff errored: %s" e);
  let perturbed =
    {
      fleet_process with
      Export.events =
        fleet_process.Export.events
        @ [
            ev 500
              (label (Marker.entry ~domid:1 ~hyp:"kvm_arm" ~pcpu:1 ()))
              Span.Instant;
          ];
    }
  in
  let new_doc = render_process ~opts:per_domain_opts perturbed in
  match Stat.diff old_doc new_doc with
  | Ok findings ->
      Alcotest.(check bool)
        "per-domain drift is a finding" true
        (List.exists
           (fun (f : Stat.finding) ->
             contains_substring f.Stat.path "per_domain[d1]")
           findings)
  | Error e -> Alcotest.failf "per-domain diff errored: %s" e

let test_per_domain_csv () =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_csv ~opts:per_domain_opts ~context:"fleet-golden" fmt
    (Accounting.of_processes [ fleet_process ]);
  Format.pp_print_flush fmt ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "row %S present" expected)
        true
        (List.exists (fun l -> l = expected) lines))
    [
      "entry,fleet#0.0,m0,kvm_arm,all,d0,2,,,,";
      "entry,fleet#0.0,m0,kvm_arm,all,d1,1,,,,";
    ]

(* --- RFC 4180 CSV escaping (trace exporter regression) --------------- *)

let test_csv_escaping () =
  let evil = "a,b\"c\r\nd" in
  let p =
    {
      Export.pid = 0;
      name = evil;
      dropped = 0;
      events = [ ev 10 evil (Span.Complete 5) ];
    }
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Export.csv fmt [ p ];
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  (* Quoted, with the embedded quote doubled; the raw CR/LF must only
     ever appear inside a quoted field. *)
  Alcotest.(check bool)
    "field quoted with doubled quote" true
    (contains "\"a,b\"\"c\r\nd\"");
  Alcotest.(check bool) "unquoted evil field absent" false (contains ",a,b\"c")

(* --- jobs-invariance on a real workload ------------------------------ *)

let rr_stat_json () =
  Observe.enable ~context:"rr" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let (), cell =
        Observe.capture ~label:"rr#0.0" (fun () ->
            ignore
              (W.Netperf.run_tcp_rr ~transactions:100
                 (Platform.hypervisor Platform.Arm_m400 Platform.Kvm)))
      in
      Observe.record_cells [| cell |];
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Stat.render_json ~context:"rr" fmt (Stat_report.of_session ());
      Format.pp_print_flush fmt ();
      Buffer.contents buf)

let test_jobs_invariance () =
  Runner.set_jobs 1;
  let a = rr_stat_json () in
  Runner.set_jobs 4;
  let b = rr_stat_json () in
  Runner.set_jobs 1;
  Alcotest.(check bool) "non-empty" true (String.length a > 0);
  Alcotest.(check string) "stat JSON byte-identical at --jobs 1 vs 4" a b

(* --- conservation: guest + hypervisor cycles = total ----------------- *)

(* The trace is an observed run's one record, so it must account for
   every cycle the machine spent: on each of the five models, for a
   microbenchmark suite and a TCP_RR run, the guest and hypervisor lanes
   sum to the machine's cycle counter and the cell drops no event. *)
let test_cycle_conservation () =
  let models =
    [
      (Platform.Arm_m400, Platform.Kvm);
      (Platform.Arm_m400, Platform.Xen);
      (Platform.Arm_m400_vhe, Platform.Kvm);
      (Platform.X86_r320, Platform.Kvm);
      (Platform.X86_r320, Platform.Xen);
    ]
  in
  let runs =
    [
      ("micro", fun h -> ignore (W.Microbench.run ~iterations:4 h));
      ("rr", fun h -> ignore (W.Netperf.run_tcp_rr ~transactions:40 h));
    ]
  in
  List.iter
    (fun (platform, hyp) ->
      List.iter
        (fun (name, run) ->
          Observe.enable ~context:name ();
          let h, cell =
            Fun.protect ~finally:Observe.disable (fun () ->
                Observe.capture ~label:name (fun () ->
                    let h = Platform.hypervisor platform hyp in
                    run h;
                    h))
          in
          let what = Printf.sprintf "%s on %s" name h.Hypervisor.name in
          match cell with
          | None -> Alcotest.failf "%s: no cell recorded" what
          | Some c ->
              let acct =
                Accounting.of_processes
                  [ { Export.pid = 0; name; events = c.Observe.events; dropped = 0 } ]
              in
              Alcotest.(check int) (what ^ ": no dropped events") 0 c.Observe.dropped;
              Alcotest.(check int) (what ^ ": guest + hypervisor = total")
                (Counter.get (Machine.counters h.Hypervisor.machine) "cycles")
                (acct.Accounting.total_guest + acct.Accounting.total_hyp))
        runs)
    models

(* --- trace-vs-analytic crosscheck ------------------------------------ *)

let test_crosscheck () =
  let checks = Stat_report.crosscheck ~iterations:2 () in
  Alcotest.(check bool) "produced checks" true (List.length checks >= 30);
  List.iter
    (fun c ->
      if not (Stat_report.check_ok c) then
        Alcotest.failf "crosscheck failed: %s %s measured=%g expected=%g"
          c.Stat_report.model c.Stat_report.name c.Stat_report.measured
          c.Stat_report.expected)
    checks

(* --- snapshot diff --------------------------------------------------- *)

let test_diff () =
  let doc = render (Stat.render_json ~context:"golden") in
  (match Stat.diff doc doc with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "self-diff found %d findings" (List.length fs)
  | Error e -> Alcotest.failf "self-diff errored: %s" e);
  (* Perturb the latency sum well past the 2% cycles threshold and the
     exit count past the 0% count threshold. *)
  let perturbed =
    {
      synthetic_process with
      Export.events =
        synthetic_process.Export.events
        @ [
            ev 2000
              (label (Marker.exit ~hyp:"kvm_arm" ~reason:Esr.Hvc64 ~pcpu:4))
              Span.Instant;
            ev 2100 "kvm_arm.host_dispatch" (Span.Complete 900);
          ];
    }
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ~context:"golden" fmt
    (Accounting.of_processes [ perturbed ]);
  Format.pp_print_flush fmt ();
  (match Stat.diff doc (Buffer.contents buf) with
  | Ok [] -> Alcotest.fail "perturbation produced no findings"
  | Ok _ -> ()
  | Error e -> Alcotest.failf "perturbed diff errored: %s" e);
  match Stat.diff doc "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed input should be an Error"

(* --- the shared codec ------------------------------------------------- *)

let never_raises s =
  match Codec.parse_json s with Ok _ | Error _ -> true

let test_bad_escapes () =
  List.iter
    (fun doc ->
      match Codec.parse_json doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" doc)
    [
      {|"\uZZZZ"|}; {|"\u12"|}; {|"\u00g0"|}; {|"\u+123"|}; {|"\u_123"|};
      {|"\q"|};
      (* Well-formed but nested past the parser's depth cap. *)
      String.make 600 '[' ^ String.make 600 ']';
    ];
  Alcotest.(check bool) "\\u escapes decode" true
    (Codec.parse_json {|"\u0041\u00e9\u20ac"|}
     = Ok (Codec.Str "A\xc3\xa9\xe2\x82\xac"))

let prop_parse_total =
  (* Bytes drawn mostly from JSON's own alphabet reach deep into the
     parser; a few arbitrary bytes cover the rest. *)
  let gen =
    QCheck.Gen.(
      string_size (0 -- 40)
        ~gen:
          (frequency
             [
               (6, oneofl (List.of_seq (String.to_seq {|{}[]":,\u0aZ-1.e+ tfn/|})));
               (1, char);
             ]))
  in
  QCheck.Test.make ~count:2000 ~name:"parse_json never raises"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    never_raises

let stat_baseline () =
  let path =
    Filename.concat (Armvirt_lint.Driver.find_root ()) "STAT_baseline.json"
  in
  In_channel.with_open_bin path In_channel.input_all

(* Replace, delete or insert a byte at each of a few positions. *)
let mutate doc edits =
  List.fold_left
    (fun s (op, pos, c) ->
      let n = String.length s in
      let i = if n = 0 then 0 else pos mod n in
      let before = String.sub s 0 i and after = String.sub s i (n - i) in
      match op with
      | 0 when n > 0 ->
          before ^ String.make 1 c ^ String.sub after 1 (String.length after - 1)
      | 1 when n > 0 ->
          before ^ String.sub after 1 (String.length after - 1)
      | _ -> before ^ String.make 1 c ^ after)
    doc edits

let prop_mutated_baseline () =
  let doc = stat_baseline () in
  QCheck.Test.make ~count:1000
    ~name:"parse_json and diff never raise on mutated STAT_baseline.json"
    QCheck.(
      list_of_size Gen.(1 -- 6)
        (triple (int_bound 2) (int_bound (String.length doc)) char))
    (fun edits ->
      let s = mutate doc edits in
      ignore (Stat.diff doc s);
      never_raises s)

let prop_escape_round_trip =
  QCheck.Test.make ~count:1000 ~name:"escape then parse is the identity"
    QCheck.string
    (fun s ->
      Codec.parse_json ("\"" ^ Codec.escape_json s ^ "\"") = Ok (Codec.Str s))

(* A reference RFC 4180 row reader for the round-trip property: a line
   break or quote outside a quoted field is malformed ([None]). *)
let parse_csv_row row =
  let n = String.length row in
  let field = Buffer.create 16 in
  let take () =
    let f = Buffer.contents field in
    Buffer.clear field;
    f
  in
  let rec plain i acc =
    if i = n then Some (List.rev (take () :: acc))
    else
      match row.[i] with
      | ',' ->
          let f = take () in
          start (i + 1) (f :: acc)
      | '\n' | '\r' | '"' -> None
      | c ->
          Buffer.add_char field c;
          plain (i + 1) acc
  and quoted i acc =
    if i = n then None
    else if row.[i] = '"' && i + 1 < n && row.[i + 1] = '"' then begin
      Buffer.add_char field '"';
      quoted (i + 2) acc
    end
    else if row.[i] = '"' then
      if i + 1 = n || row.[i + 1] = ',' then plain (i + 1) acc else None
    else begin
      Buffer.add_char field row.[i];
      quoted (i + 1) acc
    end
  and start i acc =
    if i < n && row.[i] = '"' then quoted (i + 1) acc else plain i acc
  in
  start 0 []

let prop_csv_round_trip =
  let field =
    QCheck.Gen.(string_size (0 -- 8) ~gen:(oneofl [ 'a'; ','; '"'; '\n'; '\r'; ' ' ]))
  in
  QCheck.Test.make ~count:1000 ~name:"csv_field round-trips , \" LF CR"
    (QCheck.make
       ~print:QCheck.Print.(list (Printf.sprintf "%S"))
       QCheck.Gen.(list_size (1 -- 5) field))
    (fun fields ->
      parse_csv_row (String.concat "," (List.map Codec.csv_field fields))
      = Some fields)

let () =
  Alcotest.run "stat"
    [
      ( "accounting",
        [
          Alcotest.test_case "marker grammar" `Quick test_parse_label;
          Alcotest.test_case "pairing and lanes" `Quick
            test_pairing_and_lanes;
          Alcotest.test_case "lane rules" `Quick test_lane_rules;
          QCheck_alcotest.to_alcotest prop_marker_round_trip;
        ] );
      ( "render",
        [
          Alcotest.test_case "golden armvirt.stat/v1" `Quick test_golden_json;
          Alcotest.test_case "csv" `Quick test_csv_render;
          Alcotest.test_case "csv escaping (RFC 4180)" `Quick
            test_csv_escaping;
        ] );
      ( "per-domain",
        [
          Alcotest.test_case "golden with --per-domain" `Quick
            test_per_domain_golden;
          Alcotest.test_case "diff covers per_domain" `Quick
            test_per_domain_diff;
          Alcotest.test_case "csv entry rows" `Quick test_per_domain_csv;
        ] );
      ( "session",
        [
          Alcotest.test_case "jobs-invariance (netperf-rr)" `Quick
            test_jobs_invariance;
          Alcotest.test_case "crosscheck vs analytic model" `Slow
            test_crosscheck;
          Alcotest.test_case "guest + hypervisor = total cycles" `Quick
            test_cycle_conservation;
        ] );
      ("diff", [ Alcotest.test_case "thresholded diff" `Quick test_diff ]);
      ( "codec",
        Alcotest.test_case "bad escapes are errors" `Quick test_bad_escapes
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_parse_total;
               prop_mutated_baseline ();
               prop_escape_round_trip;
               prop_csv_round_trip;
             ] );
    ]
