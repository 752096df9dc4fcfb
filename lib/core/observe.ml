module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Export = Armvirt_obs.Export

type cell = {
  label : string;
  events : Span.event list;
  dropped : int;
  wall_s : float;
}

(* One live collector per domain: the runner executes each cell on one
   domain, and [capture] scopes a collector to the cell so concurrent
   cells never share a tracer. *)
type live = { tracer : Tracer.t; mutable machines : int }

let live_key : live option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let default_capacity = 1 lsl 18

let enabled = ref false
let ring_capacity = ref default_capacity
let context_name = ref "run"
let map_seq = Atomic.make 0

(* Everything below the lock is shared across runner domains. *)
let lock = Mutex.create ()
let sink : cell list ref = ref [] (* newest first *)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let active () = !enabled
let context () = !context_name
let next_map_seq () = Atomic.fetch_and_add map_seq 1

(* --- machine instrumentation --------------------------------------- *)

let trace_machine ?(prefix = "") tracer m =
  let track = prefix ^ "cpu" in
  Machine.observe m
    (Some
       (fun ~label ~cycles ~now ->
         Tracer.complete tracer ~track ~cat:(Span.of_label label) ~name:label
           ~ts:(Cycles.to_int now - cycles) ~dur:cycles));
  (* Counts become instants on the same cpu track: the accounting layer
     pairs exit/entry markers against it to derive exit latencies. *)
  Machine.observe_count m
    (Some
       (fun ~label ~now ->
         Tracer.instant tracer ~track ~cat:(Span.of_label label) ~name:label
           ~ts:(Cycles.to_int now)))

let pp_ledger ppf events =
  List.iter
    (fun (e : Span.event) ->
      match e.Span.kind with
      | Span.Complete dur when e.Span.track = "cpu" ->
          Format.fprintf ppf "%12s  +%-6d %s@."
            (Format.asprintf "%a" Cycles.pp (Cycles.of_int (e.Span.ts + dur)))
            dur e.Span.name
      | _ -> ())
    events

let attach live m =
  let idx = live.machines in
  live.machines <- idx + 1;
  let prefix = if idx = 0 then "" else Printf.sprintf "m%d:" idx in
  let tracer = live.tracer in
  trace_machine ~prefix tracer m;
  (* Park times keyed by pid so blocked spans pair correctly even when
     several processes share a display name. *)
  let parked : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Sim.set_observer (Machine.sim m)
    (Some
       {
         Sim.on_spawn =
           (fun ~id:_ ~name ~at ->
             Tracer.instant tracer ~track:(prefix ^ name) ~cat:Span.Sched
               ~name:"spawn" ~ts:at);
         on_park = (fun ~id ~name:_ ~at -> Hashtbl.replace parked id at);
         on_wake =
           (fun ~id ~name ~at ->
             match Hashtbl.find_opt parked id with
             | None -> ()
             | Some t0 ->
                 Hashtbl.remove parked id;
                 if at > t0 then
                   Tracer.complete tracer ~track:(prefix ^ name)
                     ~cat:Span.Sched ~name:"blocked" ~ts:t0 ~dur:(at - t0));
         on_contention =
           (fun ~resource ~proc ~at ~waited ->
             Tracer.complete tracer ~track:(prefix ^ proc) ~cat:Span.Sched
               ~name:("contention:" ^ resource) ~ts:at ~dur:waited);
         on_queue_depth =
           (fun ~mailbox ~at ~depth ->
             Tracer.value tracer ~track:(prefix ^ "mb:" ^ mailbox)
               ~cat:Span.Io ~name:mailbox ~ts:at ~value:depth);
       })

let machine_hook m =
  match Domain.DLS.get live_key with
  | None -> () (* machine built outside any captured cell: untraced *)
  | Some live -> attach live m

(* --- session lifecycle --------------------------------------------- *)

let enable ?(capacity = default_capacity) ~context () =
  locked (fun () -> sink := []);
  context_name := context;
  Atomic.set map_seq 0;
  ring_capacity := capacity;
  enabled := true;
  Machine.set_create_hook (Some machine_hook)

and disable () =
  enabled := false;
  Machine.set_create_hook None

let capture ~label f =
  if not !enabled then (f (), None)
  else
    match Domain.DLS.get live_key with
    | Some _ ->
        (* Nested capture (e.g. an experiment's own Runner.map inside a
           traced cell): attribute everything to the enclosing cell. *)
        (f (), None)
    | None ->
        let live =
          { tracer = Tracer.create ~capacity:!ring_capacity (); machines = 0 }
        in
        Domain.DLS.set live_key (Some live);
        (* wall_s is host-side profiling for --verbose, never byte-compared *)
        (* lint: allow R2 — host-side wall-clock profiling *)
        let t0 = Unix.gettimeofday () in
        let result = try Ok (f ()) with e -> Error e in
        Domain.DLS.set live_key None;
        (match result with
        | Error e -> raise e
        | Ok v ->
            ( v,
              Some
                {
                  label;
                  events = Tracer.events live.tracer;
                  dropped = Tracer.dropped live.tracer;
                  (* lint: allow R2 — same host-side profiling as above *)
                  wall_s = Unix.gettimeofday () -. t0;
                } ))

let record_cells captured =
  if !enabled then
    locked (fun () ->
        Array.iter
          (function None -> () | Some c -> sink := c :: !sink)
          captured)

let cells () = locked (fun () -> List.rev !sink)

let processes () =
  List.mapi
    (fun i (c : cell) ->
      { Export.pid = i; name = c.label; events = c.events; dropped = c.dropped })
    (cells ())
