(** Named event counters and cycle accumulators.

    A [set] plays the role of the paper's per-experiment bookkeeping: how
    many traps, IPIs, VM switches and data copies a run performed, and how
    many cycles each category consumed. Hypervisor models increment
    counters as a side effect of executing architectural operations, and
    the reports in [Armvirt_core] read them back. *)

type set

val create_set : unit -> set

val incr : set -> string -> unit
val add : set -> string -> int -> unit
val add_cycles : set -> string -> Armvirt_engine.Cycles.t -> unit

val get : set -> string -> int
(** 0 for a counter never touched. *)

val names : set -> string list
(** All touched counters, sorted. *)

val reset : set -> unit
