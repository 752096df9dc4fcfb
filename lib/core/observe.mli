(** Tracing session glue: connects the {!Armvirt_obs} primitives to the
    engine, machines and runner.

    A session is process-global ({!enable} … {!disable}); within it, the
    runner wraps each simulation cell in {!capture}, which gives the
    cell a private tracer on its executing domain (via [Domain.DLS]). A
    {!Armvirt_arch.Machine.set_create_hook} hook attaches it to every
    machine the cell builds: {!trace_machine}
    turns its [spend] and [count] calls into spans and instants on the
    machine's ["cpu"] track, and an engine observer
    ({!Armvirt_engine.Sim.set_observer}) records process spawns, blocked
    intervals, resource contention and mailbox depths on per-process
    tracks. {!record_cells} then merges finished cells back {e in input
    order}, so exported traces are byte-identical at any [--jobs]
    level. The trace is a session's one record: every report about an
    observed run is computed from it. *)

(** {1 Tracing one machine} *)

val trace_machine :
  ?prefix:string ->
  Armvirt_obs.Tracer.t ->
  Armvirt_arch.Machine.t ->
  unit
(** [trace_machine tracer m] fills [m]'s spend and count observer slots
    ({!Armvirt_arch.Machine.observe}, {!Armvirt_arch.Machine.observe_count}):
    every [spend] becomes a complete span and every [count] an instant
    on the [prefix ^ "cpu"] track (default prefix [""]), categorised
    with {!Armvirt_obs.Span.of_label}. Replaces any
    observers already installed; clear both slots with [None] to stop.
    The session, the stat crosscheck and [armvirt timeline] all record
    through this one wiring. *)

val pp_ledger : Format.formatter -> Armvirt_obs.Span.event list -> unit
(** The Table III-style ledger of a {!trace_machine} recording: one line
    per complete span on the ["cpu"] track, in recording order, with its
    completion time, its cost in cycles and its label. *)

(** {1 Sessions} *)

type cell = {
  label : string;  (** ["<context>#<map>.<index>"], from the runner. *)
  events : Armvirt_obs.Span.event list;
  dropped : int;
  wall_s : float;  (** Host wall time of the cell, for [--verbose]. *)
}

val enable : ?capacity:int -> context:string -> unit -> unit
(** Starts a session: clears previously collected cells,
    names the session [context] (used in cell labels), bounds each
    cell's event ring at [capacity] (default 2{^18}) and installs the
    machine-creation hook. Call before any {!Runner.map}. *)

val disable : unit -> unit

val active : unit -> bool

val context : unit -> string

val next_map_seq : unit -> int
(** Sequence number for the next {!Runner.map} call in this session. *)

val capture : label:string -> (unit -> 'a) -> 'a * cell option
(** [capture ~label f] runs [f] with a fresh collector scoped to the
    calling domain and returns its result plus the finished cell. [None]
    when no session is active, or when nested inside another capture on
    this domain (the work is then attributed to the enclosing cell). *)

val record_cells : cell option array -> unit
(** Appends captured cells to the session; callers pass the array in
    cell input order. *)

val cells : unit -> cell list
(** All recorded cells, in recorded order. *)

val processes : unit -> Armvirt_obs.Export.process list
(** The recorded cells as exporter input: [pid] = record index. *)
