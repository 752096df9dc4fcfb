(** Typed counter labels for {!Machine.count}, following
    [Armvirt_obs.Accounting]'s grammar.

    A marker label is a row key in [armvirt stat]: a typo does not fail
    at runtime, the row just silently vanishes from the table. [t] is a
    private string, so the builders below are the only way to produce a
    label {!Machine.count} accepts: exit reasons are {!Esr} classes,
    directions are variants, and free-form name parts are validated as
    lowercase identifiers ([Invalid_argument] otherwise). A label
    coerces to its string ([(m :> string)]) at no cost.

    Labels whose parts are fixed when their owner is created (a model's
    operation counters, a switch port's rx/tx/drop) should be built once
    there and stored; exit and entry labels carry the PCPU and are built
    per call. *)

type t = private string

type dir = Rx | Tx | Drop

val exit : hyp:string -> reason:Esr.exception_class -> pcpu:int -> t
(** ["<hyp>.exit/<reason>/p<pcpu>"], [<reason>] being
    {!Esr.short_name}. *)

val entry : ?domid:int -> hyp:string -> pcpu:int -> unit -> t
(** ["<hyp>.entry/p<pcpu>"] or ["<hyp>.entry/p<pcpu>/d<domid>"]. *)

val op : hyp:string -> string -> t
(** ["<hyp>.<op>"] with [op] in [[a-z0-9_]+]. *)

val port : switch:string -> port:int -> dir -> t
(** ["vswitch.<switch>/p<port>/(rx|tx|drop)"]. *)

val flood : switch:string -> t
(** ["vswitch.<switch>/flood"]. *)

val uplink : switch:string -> uplink:int -> dir -> t
(** ["wire.<switch>-u<uplink>/(rx|tx)"]; [Drop] raises
    [Invalid_argument] — wires do not drop in the model. *)
