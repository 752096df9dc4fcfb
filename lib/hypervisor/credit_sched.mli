(** A credit-style proportional-share VCPU scheduler, modelled on Xen's
    credit scheduler (also a reasonable stand-in for CFS with QEMU
    processes).

    The paper's VM Switch microbenchmark measures "a central cost when
    oversubscribing physical CPUs"; this module supplies the scheduling
    substrate that turns that per-switch cost into an application-level
    overhead (see {!Armvirt_workloads.Oversub}). The model keeps the
    essentials: per-VCPU credits burned while running, wake-up boosting,
    affinity, round-robin among equal-credit VCPUs, and a global refill
    when the runnable set exhausts its credits.

    Each PCPU keeps a runqueue of its runnable VCPUs in [(dom, index)]
    order, updated incrementally by {!set_runnable} and {!remove_vcpu},
    and the scheduler keeps two counts — runnable VCPUs, and those of
    them with credit left — exact across every credit or runnability
    change. {!pick} therefore costs
    O(runnable VCPUs on that PCPU) and allocates nothing, and the
    exhaustion check in {!charge} is O(1); only an actual refill
    touches every registered VCPU. *)

type vcpu = { dom : int; index : int }

type t

val create : num_pcpus:int -> timeslice_cycles:int -> t
(** [timeslice_cycles] is the credit charge that forces a preemption
    check (Xen defaults to 30 ms; experiments use shorter slices).
    Raises [Invalid_argument] on non-positive arguments. *)

val default_weight : int
(** The neutral proportional-share weight (256, as in Xen). *)

val add_vcpu : ?weight:int -> ?cap:int -> t -> vcpu -> affinity:int -> unit
(** Registers a VCPU pinned to one PCPU (the paper's configuration).
    [weight] (default {!default_weight}) scales the VCPU's refill grant
    proportionally, so a weight-512 VCPU accumulates credit twice as
    fast as a weight-256 one. [cap] (default 0 = uncapped) is a
    percent ceiling: a capped VCPU's credit is clamped to
    [cap/100 * initial_credit] at every refill and the VCPU is
    throttled — runnable but unschedulable — whenever its credit is
    exhausted, bounding its PCPU share even when cycles are idle.
    Raises [Invalid_argument] for an out-of-range PCPU, a weight < 1,
    a cap outside [0, 100], or a duplicate VCPU. *)

val remove_vcpu : t -> vcpu -> unit
(** Deregisters a VCPU (a departing guest under churn). If it was the
    incumbent on its PCPU the slot falls back to idle; the next [pick]
    records the switch. Raises [Invalid_argument] if unknown. *)

val set_runnable : t -> vcpu -> bool -> unit
(** Blocking/waking. Waking boosts the VCPU to the front of its
    runqueue (Xen's BOOST priority), letting I/O-blocked VCPUs preempt
    CPU hogs — the behaviour that keeps latency-sensitive VMs alive
    under oversubscription. *)

val pick : t -> pcpu:int -> vcpu option
(** Schedules the next VCPU on a PCPU: the runnable VCPU with the most
    credit (FIFO among ties), or [None] to run the idle context.
    Recorded as a context switch when it differs from the incumbent.
    Walks only this PCPU's runqueue, in [(dom, index)] order, without
    allocating: under caps the preference is not transitive, so the
    walk order is part of the result. *)

val charge : t -> pcpu:int -> cycles:int -> unit
(** Burns credit on the currently running VCPU. When every runnable
    VCPU in the system is out of credit, credits refill. The exhaustion
    check is O(1); the refill itself grants credit to every registered
    VCPU. *)

val periodic_refill : t -> cycles:int -> unit
(** Xen's periodic accounting tick. [cycles] is the per-PCPU capacity
    elapsed since the last tick; it is distributed among each PCPU's
    runnable VCPUs proportionally to weight, bounded by each cap's
    share of the interval, and clamped at the initial credit to
    prevent hoarding. Quantum-stepped drivers (see
    [Armvirt_fleet.Scenario]) call this on a fixed cadence so caps and
    weights shape throughput even when the work-conserving exhaustion
    refill never fires. Visits only runnable VCPUs, through the
    per-PCPU runqueues. Raises [Invalid_argument] on negative
    [cycles]. *)

val current : t -> pcpu:int -> vcpu option
val credit_of : t -> vcpu -> int
val switches : t -> int
(** Context switches performed so far (idle transitions included). *)

val refills : t -> int

val run_to_completion :
  t -> work:(vcpu * int) list -> switch_cost:int -> int * int
(** [run_to_completion t ~work ~switch_cost] simulates the pinned
    system until every VCPU finishes its assigned cycles of CPU-bound
    work, charging [switch_cost] per context switch. Returns
    [(makespan_cycles, total_switches)], where the makespan is the
    busiest PCPU's total including switching overhead. Raises
    [Invalid_argument] if a listed VCPU was never added. *)
