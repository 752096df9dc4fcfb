(** A simulated server machine: PCPUs, a cost model, and accounting.

    Mirrors one CloudLab node from the paper's experimental setup
    (section III): 8 physical cores, one hypervisor, cycle counters. All
    hypervisor and workload models execute as simulation processes on a
    machine and price their work through {!spend}, which both advances
    simulated time and attributes the cycles to a named counter so the
    reports can decompose where time went. *)

type pcpu
(** One physical CPU. *)

type t

val create :
  Armvirt_engine.Sim.t -> cost:Cost_model.t -> num_cpus:int -> t
(** Raises [Invalid_argument] if [num_cpus < 1]. *)

val sim : t -> Armvirt_engine.Sim.t
val cost : t -> Cost_model.t
val counters : t -> Armvirt_stats.Counter.set
val num_cpus : t -> int

val pcpu : t -> int -> pcpu
(** Raises [Invalid_argument] on an out-of-range index. *)

val pcpu_id : pcpu -> int

val exclusive : pcpu -> Armvirt_engine.Sim.Resource.t
(** Capacity-1 resource serializing contexts that share the physical CPU
    (e.g. Xen's Dom0 and the idle domain). The paper pins each VCPU to a
    dedicated PCPU, so most experiments never contend on this. *)

val spend : t -> string -> int -> unit
(** [spend t label cycles] advances the calling process by [cycles] and
    adds them to counter [label] (and to the total counter ["cycles"]).
    Must run inside a simulation process. *)

val observe :
  t -> (label:string -> cycles:int -> now:Armvirt_engine.Cycles.t -> unit) option -> unit
(** Installs (or clears) the machine's one spend observer, invoked on
    every {!spend} with the simulated time {e after} the operation.
    There is a single slot: installing an observer replaces the previous
    one. The tracing layer ([Armvirt_core.Observe.trace_machine]) fills
    it to turn spends into trace spans and the [timeline] ledger,
    without touching the hypervisor paths; with no observer, {!spend}
    pays one option check. *)

val observe_count :
  t -> (label:string -> now:Armvirt_engine.Cycles.t -> unit) option -> unit
(** Installs (or clears) an observer invoked on every {!count} with the
    counter label and the machine's current simulated time. The
    accounting layer turns exit/entry marker counts into instant trace
    events through this slot; with no observer installed, {!count} costs
    one hashtable increment and an option check. Unlike the spend
    observer it reads the machine clock directly, so it is safe from
    outside a simulation process. *)

val set_create_hook : (t -> unit) option -> unit
(** Installs (or clears) a process-wide hook invoked on every {!create}
    with the new machine. Lets a tracing session instrument machines that
    experiments construct internally. Not domain-scoped: set it before
    spawning runner domains and clear it after. *)

val count : t -> Marker.t -> unit
(** Increment the marker's event counter without consuming time. Only
    the {!Marker} builders produce a label, so every counted row key
    follows the accounting grammar. *)

val freq_ghz : t -> float

val elapsed_us : t -> Armvirt_engine.Cycles.t -> float
(** Convert cycles to microseconds at this machine's clock frequency. *)
