(* Typed builders for the counter-label grammar in
   Armvirt_obs.Accounting. [t] is private in the interface, so these are
   the only producers of a counted label; the exit reason is the Esr
   class itself, rendered with Esr.short_name. *)

type t = string

type dir = Rx | Tx | Drop

let dir_to_string = function Rx -> "rx" | Tx -> "tx" | Drop -> "drop"

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let require_ident ~what s =
  if not (is_ident s) then
    invalid_arg
      (Printf.sprintf "Marker: %s %S is not a lowercase identifier" what s)

let exit ~hyp ~reason ~pcpu =
  require_ident ~what:"hypervisor" hyp;
  Printf.sprintf "%s.exit/%s/p%d" hyp (Esr.short_name reason) pcpu

let entry ?domid ~hyp ~pcpu () =
  require_ident ~what:"hypervisor" hyp;
  match domid with
  | None -> Printf.sprintf "%s.entry/p%d" hyp pcpu
  | Some d -> Printf.sprintf "%s.entry/p%d/d%d" hyp pcpu d

let op ~hyp name =
  require_ident ~what:"hypervisor" hyp;
  if
    not
      (String.length name > 0
      && String.for_all
           (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
           name)
  then invalid_arg (Printf.sprintf "Marker.op: %S must match [a-z0-9_]+" name);
  hyp ^ "." ^ name

let port ~switch ~port dir =
  require_ident ~what:"switch" switch;
  Printf.sprintf "vswitch.%s/p%d/%s" switch port (dir_to_string dir)

let flood ~switch =
  require_ident ~what:"switch" switch;
  Printf.sprintf "vswitch.%s/flood" switch

let uplink ~switch ~uplink dir =
  require_ident ~what:"switch" switch;
  (match dir with
  | Drop -> invalid_arg "Marker.uplink: wires carry rx/tx only"
  | Rx | Tx -> ());
  Printf.sprintf "wire.%s-u%d/%s" switch uplink (dir_to_string dir)
