module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Counter = Armvirt_stats.Counter

type pcpu = { id : int; exclusive : Sim.Resource.t }

type t = {
  sim : Sim.t;
  cost : Cost_model.t;
  counters : Counter.set;
  cpus : pcpu array;
  mutable observer :
    (label:string -> cycles:int -> now:Cycles.t -> unit) option;
  mutable count_observer : (label:string -> now:Cycles.t -> unit) option;
}

(* Process-wide hook run on every [create], so a tracing session can
   attach to machines it never sees constructed (experiments build their
   machines internally). *)
(* lint: allow R6 — single process-wide hook slot, set only by Observe *)
let create_hook : (t -> unit) option ref = ref None

let set_create_hook h = create_hook := h

let create sim ~cost ~num_cpus =
  if num_cpus < 1 then invalid_arg "Machine.create: num_cpus < 1";
  let make_cpu id =
    {
      id;
      exclusive =
        Sim.Resource.create ~name:(Printf.sprintf "pcpu%d" id) sim ~capacity:1;
    }
  in
  let t =
    {
      sim;
      cost;
      counters = Counter.create_set ();
      cpus = Array.init num_cpus make_cpu;
      observer = None;
      count_observer = None;
    }
  in
  (match !create_hook with None -> () | Some h -> h t);
  t

let sim t = t.sim
let cost t = t.cost
let counters t = t.counters
let num_cpus t = Array.length t.cpus

let pcpu t i =
  if i < 0 || i >= Array.length t.cpus then
    invalid_arg (Printf.sprintf "Machine.pcpu: index %d out of range" i);
  t.cpus.(i)

let pcpu_id cpu = cpu.id
let exclusive cpu = cpu.exclusive

let observe t observer = t.observer <- observer
let observe_count t observer = t.count_observer <- observer

let spend t label cycles =
  if cycles < 0 then invalid_arg "Machine.spend: negative cycles";
  Counter.add t.counters label cycles;
  Counter.add t.counters "cycles" cycles;
  Sim.delay (Cycles.of_int cycles);
  match t.observer with
  | Some notify -> notify ~label ~cycles ~now:(Sim.current_time ())
  | None -> ()

let count t (marker : Marker.t) =
  let label = (marker :> string) in
  Counter.incr t.counters label;
  match t.count_observer with
  | Some notify -> notify ~label ~now:(Sim.now t.sim)
  | None -> ()
let freq_ghz t = Cost_model.freq_ghz t.cost
let elapsed_us t c = Cycles.to_us ~hz:(freq_ghz t *. 1e9) c
