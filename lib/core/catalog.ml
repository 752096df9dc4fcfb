type t = { id : string; doc : string; run : Format.formatter -> unit }

let v id doc run = { id; doc; run }

let all =
  [
    v "table2" "Table II: the seven microbenchmarks on all four hypervisors"
      (fun ppf -> Report.pp_table2 ppf (Experiment.table2 ()));
    v "table3" "Table III: KVM ARM hypercall save/restore decomposition"
      (fun ppf -> Report.pp_table3 ppf (Experiment.table3 ()));
    v "table5" "Table V: Netperf TCP_RR latency analysis on ARM" (fun ppf ->
        Report.pp_table5 ppf (Experiment.table5 ()));
    v "fig4" "Figure 4: application benchmark performance, normalized"
      (fun ppf -> Report.pp_fig4 ppf (Experiment.fig4 ()));
    v "vhe" "Section VI: ARMv8.1 VHE microbenchmarks and app predictions"
      (fun ppf ->
        Report.pp_vhe ppf (Experiment.vhe ());
        Report.pp_vhe_app ppf (Experiment.vhe_app ()));
    v "irqdist" "Section V ablation: distributing virtual interrupts"
      (fun ppf -> Report.pp_irqdist ppf (Experiment.irqdist ()));
    v "pinning" "Section IV check: Xen I/O latency vs pinning" (fun ppf ->
        Report.pp_pinning ppf (Experiment.pinning ()));
    v "zerocopy" "Section V what-if: Xen zero copy on ARM" (fun ppf ->
        Report.pp_zerocopy ppf (Experiment.zerocopy ());
        Format.fprintf ppf "x86 zero-copy break-even: %d bytes@."
          (Experiment.x86_zero_copy_break_even ()));
    v "oversub" "Extension: VM Switch cost under oversubscription" (fun ppf ->
        Report.pp_oversub ppf (Experiment.oversub ()));
    v "disk" "Extension: paravirtual block I/O latency/throughput" (fun ppf ->
        Report.pp_disk ppf (Experiment.disk ()));
    v "tail" "Extension: open-loop tail latency percentiles" (fun ppf ->
        Report.pp_tail ppf (Experiment.tail ()));
    v "coldstart" "Extension: cold-start stage-2 faulting" (fun ppf ->
        Report.pp_coldstart ppf (Experiment.coldstart ()));
    v "lrs" "Extension: vGIC list-register sensitivity" (fun ppf ->
        Report.pp_lrs ppf (Experiment.lrs ()));
    v "gicv3" "Extension: GICv2 vs GICv3 interrupt-controller ablation"
      (fun ppf -> Report.pp_gicv3 ppf (Experiment.gicv3 ()));
    v "ticks" "Extension: virtual-timer tick overhead per guest HZ" (fun ppf ->
        Report.pp_ticks ppf (Experiment.ticks ()));
    v "linkspeed" "Extension: TCP_STREAM at 1 vs 10 GbE wire speed" (fun ppf ->
        Report.pp_linkspeed ppf (Experiment.linkspeed ()));
    v "isolation" "Extension: measurement variability without isolation"
      (fun ppf -> Report.pp_isolation ppf (Experiment.isolation ()));
    v "structural" "Cross-validation: structural stacks vs analytic models"
      (fun ppf -> Report.pp_structural ppf (Experiment.structural ()));
    v "lazyswitch" "Extension: post-paper lazy state-switching optimizations"
      (fun ppf -> Report.pp_lazyswitch ppf (Experiment.lazyswitch ()));
    v "guestops" "Extension: guest-local operation costs (what stays native)"
      (fun ppf -> Report.pp_guestops ppf (Experiment.guestops ()));
    v "crosscall" "Extension: guest broadcast cross-call (TLB shootdown) cost"
      (fun ppf -> Report.pp_crosscall ppf (Experiment.crosscall ()));
    v "vapic" "Extension: x86 with vAPIC (hardware interrupt completion)"
      (fun ppf ->
        Report.pp_vapic ppf (Experiment.vapic ());
        Report.pp_vapic_apps ppf (Experiment.vapic_apps ()));
    v "twodwalk" "Extension: nested paging's 24-access 2D page walk" (fun ppf ->
        Report.pp_twodwalk ppf (Experiment.twodwalk ()));
    v "multiqueue" "Extension: virtio-net multiqueue vs the IRQ bottleneck"
      (fun ppf -> Report.pp_multiqueue ppf (Experiment.multiqueue ()));
    v "tracereplay" "Extension: synthetic trace replay, per-request surcharges"
      (fun ppf -> Report.pp_tracereplay ppf (Experiment.tracereplay ()));
    v "consolidation" "Extension: VM density (N memcached VMs per host)"
      (fun ppf -> Report.pp_consolidation ppf (Experiment.consolidation ()));
    v "migrate" "Extension: live-migration downtime/SLO under request load"
      (fun ppf -> Report.pp_migrate ppf (Experiment.migrate ()));
    v "fig4chart" "Figure 4 as ASCII bars (ARM columns)" (fun ppf ->
        Report.pp_fig4_chart ppf (Experiment.fig4 ()));
  ]

let find id = List.find_opt (fun e -> e.id = id) all
