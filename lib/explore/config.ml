module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module H = Armvirt_hypervisor
module Platform = Armvirt_core.Platform
module Plan = Armvirt_migrate.Plan

type hyp_choice = Kvm | Xen | Native

type fleet_cfg = {
  fleet_vms : int;
  fleet_vcpus : int;
  fleet_timeslice_ms : float;
}

type cluster_cfg = {
  cluster_vms : int;
  cluster_load : float;
  net_queue : int;
  net_uplink_gbps : float;
}

type t = {
  arm : Cost_model.arm;
  tuning : H.Kvm_arm.tuning;
  num_lrs : int;
  vhost : bool;
  hyp : hyp_choice;
  migration : Plan.t;
  fleet : fleet_cfg;
  cluster : cluster_cfg;
}

let default_fleet = { fleet_vms = 16; fleet_vcpus = 1; fleet_timeslice_ms = 1.0 }

let default_cluster =
  {
    cluster_vms = 4;
    cluster_load = 0.8;
    net_queue = 64;
    net_uplink_gbps = 10.0;
  }

let default =
  {
    arm = Cost_model.arm_default;
    tuning = H.Kvm_arm.default_tuning;
    num_lrs = 4;
    vhost = true;
    hyp = Kvm;
    migration = Plan.default;
    fleet = default_fleet;
    cluster = default_cluster;
  }

let hyp_choice_of_string = function
  | "kvm" -> Kvm
  | "xen" -> Xen
  | "native" -> Native
  | s ->
      invalid_arg
        (Printf.sprintf "Config: unknown hypervisor %S (kvm|xen|native)" s)

let as_int name = function
  | Space.Int n -> n
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants an int, got %s" name
           (Space.value_to_string v))

let as_float name = function
  | Space.Float f -> f
  | Space.Int n -> float_of_int n
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants a float, got %s" name
           (Space.value_to_string v))

let as_bool name = function
  | Space.Bool b -> b
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants a bool, got %s" name
           (Space.value_to_string v))

type knob = { name : string; doc : string; set : t -> Space.value -> t }

(* A knob whose value decodes through [as_int]/[as_float]/[as_bool]:
   the setter sees the decoded value, and a value of the wrong kind is
   reported under the knob's own name. *)
let typed decode name doc set =
  { name; doc; set = (fun t v -> set t (decode name v)) }

let int_knob = typed as_int
let float_knob = typed as_float
let bool_knob = typed as_bool

let vgic_costs arm = arm.Cost_model.reg Reg_class.Vgic
let arm t f = { t with arm = f t.arm }
let tuning t f = { t with tuning = f t.tuning }

let mig t f =
  let m = f t.migration in
  Plan.validate m;
  { t with migration = m }

let at_least name lo n =
  if n < lo then invalid_arg (Printf.sprintf "Config: %s < %d" name lo);
  n

let positive name x =
  if x <= 0.0 then invalid_arg (Printf.sprintf "Config: %s <= 0" name);
  x

(* A cycle cost: a negative one would make Machine.spend raise mid-run. *)
let cost_knob name doc set =
  int_knob name doc (fun t n -> set t (at_least name 0 n))

let knobs =
  [
    cost_knob "vgic.save" "VGIC register-class save cost (Table III's 3250)"
      (fun t save ->
        let restore = (vgic_costs t.arm).restore in
        arm t (Cost_model.with_reg_cost Reg_class.Vgic ~save ~restore));
    cost_knob "vgic.restore" "VGIC register-class restore cost (Table III's 181)"
      (fun t restore ->
        let save = (vgic_costs t.arm).save in
        arm t (Cost_model.with_reg_cost Reg_class.Vgic ~save ~restore));
    cost_knob "trap_to_el2" "hardware trap cost into EL2" (fun t n ->
        arm t (fun a -> { a with trap_to_el2 = n }));
    cost_knob "eret" "exception return from EL2" (fun t n ->
        arm t (fun a -> { a with eret = n }));
    cost_knob "hvc_issue" "guest-side HVC issue cost" (fun t n ->
        arm t (fun a -> { a with hvc_issue = n }));
    cost_knob "stage2_toggle" "one Stage-2/trap reconfiguration of HCR_EL2"
      (fun t n -> arm t (fun a -> { a with stage2_toggle = n }));
    cost_knob "vgic_slot_scan" "list-register status scan before injection"
      (fun t n -> arm t (fun a -> { a with vgic_slot_scan = n }));
    cost_knob "vgic_lr_write" "one list-register write" (fun t n ->
        arm t (fun a -> { a with vgic_lr_write = n }));
    cost_knob "virq_complete" "trap-free virtual interrupt completion"
      (fun t n -> arm t (fun a -> { a with virq_complete = n }));
    cost_knob "mmio_decode" "Stage-2 abort syndrome decode" (fun t n ->
        arm t (fun a -> { a with mmio_decode = n }));
    float_knob "freq_ghz" "core clock in GHz (float)" (fun t f ->
        let f = positive "freq_ghz" f in
        arm t (fun a -> { a with freq_ghz = f }));
    bool_knob "vhe" "ARMv8.1 VHE on/off (bool; forced off for xen/native)"
      (fun t b -> arm t (Cost_model.with_vhe b));
    bool_knob "lazy_fp" "lazy FP switch tuning flag (bool)" (fun t b ->
        tuning t (fun u -> { u with H.Kvm_arm.lazy_fp = b }));
    bool_knob "lazy_vgic" "lazy VGIC read-back tuning flag (bool)" (fun t b ->
        tuning t (fun u -> { u with H.Kvm_arm.lazy_vgic = b }));
    cost_knob "host_dispatch" "host-side KVM run-loop cost" (fun t n ->
        tuning t (fun u -> { u with H.Kvm_arm.host_dispatch = n }));
    cost_knob "vcpu_resume" "blocked-VCPU wakeup cost" (fun t n ->
        tuning t (fun u -> { u with H.Kvm_arm.vcpu_resume = n }));
    cost_knob "vhost_per_packet" "VHOST backend per-packet cost" (fun t n ->
        tuning t (fun u -> { u with H.Kvm_arm.vhost_per_packet = n }));
    cost_knob "process_switch" "VM-to-VM process switch cost" (fun t n ->
        tuning t (fun u -> { u with H.Kvm_arm.process_switch = n }));
    int_knob "lr_count" "GIC list registers available to the VM (int)"
      (fun t n -> { t with num_lrs = at_least "lr_count" 1 n });
    bool_knob "vhost"
      "in-kernel VHOST backend on/off (bool; off quadruples the \
       per-packet backend cost, modelling a userspace backend)" (fun t b ->
        { t with vhost = b });
    {
      name = "hyp";
      doc = "which hypervisor runs the point (kvm|xen|native)";
      set =
        (fun t -> function
          | Space.Choice s -> { t with hyp = hyp_choice_of_string s }
          | v ->
              invalid_arg
                (Printf.sprintf "Config: hyp wants kvm|xen|native, got %s"
                   (Space.value_to_string v)));
    };
    cost_knob "stage2_wp_fault"
      "stage-2 write-protection fault handling cost (dirty logging, \
       distinct from a missing mapping)" (fun t n ->
        arm t (Cost_model.with_stage2_wp_fault n));
    float_knob "mig.txn_rate_hz"
      "migration workload request arrival rate (float, sets the guest \
       dirty rate)" (fun t f -> mig t (fun m -> { m with Plan.txn_rate_hz = f }));
    float_knob "mig.bandwidth_gbps" "migration link bandwidth in Gbps (float)"
      (fun t f -> mig t (fun m -> { m with Plan.bandwidth_gbps = f }));
    (* Resize the granule, hold guest memory and the hot-set byte
       footprint constant: 4096 x 4K and 2048 x 8K are the same VM. *)
    int_knob "mig.page_kb"
      "migration page granule in KiB (int; total guest memory is held \
       constant)" (fun t kb ->
        mig t (fun m ->
            let kb = at_least "mig.page_kb" 1 kb in
            let total_kb = m.Plan.pages * m.Plan.page_kb in
            let hot_kb = m.Plan.hot_pages * m.Plan.page_kb in
            {
              m with
              Plan.page_kb = kb;
              pages = max 1 (total_kb / kb);
              hot_pages = max 1 (hot_kb / kb);
            }));
    int_knob "mig.max_rounds" "pre-copy round cap before forced stop-and-copy"
      (fun t n -> mig t (fun m -> { m with Plan.max_rounds = n }));
    float_knob "mig.downtime_us"
      "downtime SLO driving pre-copy convergence (float)" (fun t f ->
        mig t (fun m -> { m with Plan.downtime_target_us = f }));
    int_knob "fleet.vms"
      "guests consolidated on the host for the fleet-* objectives (int)"
      (fun t n ->
        { t with fleet = { t.fleet with fleet_vms = at_least "fleet.vms" 1 n } });
    int_knob "fleet.vcpus"
      "VCPUs per fleet guest (int; 2 at 8 PCPUs is 4x overcommit at 16 VMs)"
      (fun t n ->
        let n = at_least "fleet.vcpus" 1 n in
        { t with fleet = { t.fleet with fleet_vcpus = n } });
    float_knob "fleet.timeslice_ms" "credit-scheduler timeslice in ms (float)"
      (fun t ms ->
        let ms = positive "fleet.timeslice_ms" ms in
        { t with fleet = { t.fleet with fleet_timeslice_ms = ms } });
    int_knob "cluster.vms"
      "VMs on the two-host cluster topology for the cluster-* objectives \
       (int, >= 2)" (fun t n ->
        let n = at_least "cluster.vms" 2 n in
        { t with cluster = { t.cluster with cluster_vms = n } });
    float_knob "cluster.load"
      "offered load as a fraction of the backend pool's aggregate native \
       capacity (float)" (fun t l ->
        let l = positive "cluster.load" l in
        { t with cluster = { t.cluster with cluster_load = l } });
    int_knob "net.queue"
      "virtual-switch per-port egress queue capacity in frames (int)"
      (fun t n ->
        let n = at_least "net.queue" 1 n in
        { t with cluster = { t.cluster with net_queue = n } });
    float_knob "net.uplink_gbps" "cross-host uplink wire rate in Gbps (float)"
      (fun t g ->
        let g = positive "net.uplink_gbps" g in
        { t with cluster = { t.cluster with net_uplink_gbps = g } });
  ]

let apply t name v =
  match List.find_opt (fun k -> String.equal k.name name) knobs with
  | Some k -> k.set t v
  | None ->
      invalid_arg
        (Printf.sprintf "Config: unknown knob %S (see Config.knobs)" name)

let apply_point t point = List.fold_left (fun t (k, v) -> apply t k v) t point

let hypervisor t =
  (* Xen is Type 1 and Native has no EL2 resident — E2H stays clear for
     both, so a sweep mixing hypervisors never hits the Platform guard. *)
  let arm =
    match t.hyp with Kvm -> t.arm | Xen | Native -> Cost_model.with_vhe false t.arm
  in
  let machine = Platform.machine_with ~cost:(Cost_model.Arm arm) in
  match t.hyp with
  | Kvm ->
      let tuning =
        if t.vhost then t.tuning
        else
          {
            t.tuning with
            H.Kvm_arm.vhost_per_packet = t.tuning.H.Kvm_arm.vhost_per_packet * 4;
          }
      in
      H.Kvm_arm.to_hypervisor (H.Kvm_arm.create ~tuning machine)
  | Xen -> H.Xen_arm.to_hypervisor (H.Xen_arm.create machine)
  | Native -> H.Native.to_hypervisor (H.Native.create machine)
