(** Rendering and regression-diffing of {!Accounting} results.

    Three deterministic renderers (text table in the style of
    [perf kvm stat], CSV, and JSON under the ["armvirt.stat/v1"]
    schema) plus a thresholded diff of two JSON reports for regression
    gating. Rendering is a pure function of the input, so output is
    byte-identical at any runner [--jobs] level. *)

type options = {
  per_vcpu : bool;  (** Break exit rows out per PCPU. *)
  per_domain : bool;
      (** Break entry counts out per guest domain ([d<domid>] entry
          markers). Off by default; when off, documents are
          byte-identical to pre-fleet reports. *)
  top : int;  (** Keep only the top-N exit reasons by count; 0 = all. *)
}

val default_options : options

val render_text :
  ?opts:options -> context:string -> Format.formatter -> Accounting.t -> unit

val render_csv :
  ?opts:options -> context:string -> Format.formatter -> Accounting.t -> unit
(** Header
    [kind,cell,machine,hyp,pcpu,name,count,lat_count,lat_sum,lat_min,lat_max];
    [kind] is [exit], [op] or [attribution]. Fields are RFC 4180
    quoted. *)

val render_json :
  ?opts:options -> context:string -> Format.formatter -> Accounting.t -> unit
(** The ["armvirt.stat/v1"] document:
    [{"schema", "context", "vms": [{"cell", "machine", "hyp", "entries",
    "per_domain": [{"domid", "entries"}, ...], "exits": [{"reason",
    "count", "latency": {"count", "sum", "min", "max", "buckets":
    [[bound, n], ...]}}], "per_pcpu", "ops", "attribution": {"guest",
    "hypervisor"}}], "totals"}]. ["per_domain"] appears only with
    [opts.per_domain] set and at least one domain-tagged entry. *)

(** {1 Diffing} *)

type thresholds = {
  count_pct : float;
      (** Max tolerated relative change of any exit/op/entry count, in
          percent. The simulation is deterministic, so the default is
          [0.]: any count change is a finding. *)
  cycles_pct : float;
      (** Max tolerated relative change of latency sums and
          attribution cycles, in percent (default [2.]). *)
}

val default_thresholds : thresholds

type finding = {
  path : string;  (** e.g. ["vm[micro/m0/kvm_arm].exit[hvc].count"] *)
  old_value : float;
  new_value : float;
  delta_pct : float;
}

val diff :
  ?thresholds:thresholds -> string -> string -> (finding list, string) result
(** [diff old_doc new_doc] compares two ["armvirt.stat/v1"] documents;
    [Ok []] means within thresholds. VMs are matched by (cell, machine,
    hyp); a VM or exit reason present on only one side is itself a
    finding. [Error] on malformed input or schema mismatch. *)

val pp_findings : Format.formatter -> finding list -> unit
