module Cycles = Armvirt_engine.Cycles

type set = (string, int) Hashtbl.t

let create_set () : set = Hashtbl.create 32

let add set name n =
  let current = Option.value ~default:0 (Hashtbl.find_opt set name) in
  Hashtbl.replace set name (current + n)

let incr set name = add set name 1
let add_cycles set name c = add set name (Cycles.to_int c)
let get set name = Option.value ~default:0 (Hashtbl.find_opt set name)

let names set =
  Hashtbl.fold (fun name _ acc -> name :: acc) set []
  |> List.sort String.compare

let reset = Hashtbl.reset
