module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine

type kind = Type1 | Type2
type arch = Arm | X86

type t = {
  name : string;
  marker_hyp : string;
  kind : kind;
  arch : arch;
  machine : Machine.t;
  barrier_cost : Cycles.t;
  hypercall : unit -> unit;
  interrupt_controller_trap : unit -> unit;
  virtual_irq_completion : unit -> unit;
  vm_switch : unit -> unit;
  virtual_ipi : unit -> Cycles.t;
  io_latency_out : unit -> Cycles.t;
  io_latency_in : unit -> Cycles.t;
  io_profile : Io_profile.t;
  migrate : Migrate_profile.t;
  guest : Armvirt_guest.Kernel_costs.t;
}

let kind_to_string = function Type1 -> "Type 1" | Type2 -> "Type 2"

let remote_completion machine ~name ~wire path =
  let finished = Sim.Signal.create (Machine.sim machine) in
  Sim.spawn_here ~name (fun () ->
      Sim.delay wire;
      path ();
      Sim.Signal.notify finished);
  Sim.Signal.wait finished
