module Key = struct
  type t = {
    platform : string;
    hyp : string;
    tuning : string;
    iterations : int;
  }

  let v ?(platform = "") ?(hyp = "") ?(tuning = "") ?(iterations = 0) () =
    { platform; hyp; tuning; iterations }

  let to_string k =
    Printf.sprintf "%s/%s/%s/%d" k.platform k.hyp k.tuning k.iterations

  (* FNV-1a over the printed key (offset truncated to OCaml's 63-bit
     fixnum range): stable across runs and OCaml versions, unlike
     Hashtbl.hash. Masked to a positive fixnum. *)
  let seed k =
    let s = to_string k in
    let h = ref 0x3bf29ce484222325 in
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x100000001b3)
      s;
    !h land max_int
end

let default_jobs () =
  match Sys.getenv_opt "ARMVIRT_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* lint: allow R6 — process-wide --jobs override; never read mid-map *)
let current_jobs = ref None

let set_jobs n =
  if n < 1 then invalid_arg "Runner.set_jobs: jobs < 1";
  current_jobs := Some n

let jobs () =
  match !current_jobs with Some n -> n | None -> default_jobs ()

let map_indexed ~jobs g cells =
  match cells with
  | [] -> []
  | [ cell ] -> [ g 0 cell ]
  | cells when jobs = 1 -> List.mapi g cells
  | cells ->
      let input = Array.of_list cells in
      let n = Array.length input in
      let results = Array.make n None in
      let errors = Array.make n None in
      (* Work stealing off a shared cursor: cell [i] is claimed by exactly
         one domain, and writes go to disjoint slots, so the only shared
         mutable word is the cursor itself. *)
      let next = Atomic.make 0 in
      let worker () =
        let continue_stealing = ref true in
        while !continue_stealing do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue_stealing := false
          else
            match g i input.(i) with
            | v -> results.(i) <- Some v
            | exception e -> errors.(i) <- Some e
        done
      in
      let spawned = Stdlib.min jobs n - 1 in
      let domains = List.init spawned (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join domains;
      Array.iter (function Some e -> raise e | None -> ()) errors;
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false (* all slots filled *))
           results)

let map ?jobs:j f cells =
  let jobs = match j with Some n -> Stdlib.max 1 n | None -> jobs () in
  if not (Observe.active ()) then map_indexed ~jobs (fun _ x -> f x) cells
  else begin
    (* Tracing session: wrap every cell in a capture so its spans and
       metrics collect on the executing domain, then record the cells in
       input order — the trace is independent of [jobs]. *)
    let n = List.length cells in
    let captured = Array.make (Stdlib.max n 1) None in
    let seq = Observe.next_map_seq () in
    let label i = Printf.sprintf "%s#%d.%d" (Observe.context ()) seq i in
    let g i x =
      let v, cell = Observe.capture ~label:(label i) (fun () -> f x) in
      captured.(i) <- cell;
      v
    in
    match map_indexed ~jobs g cells with
    | results ->
        Observe.record_cells captured;
        results
    | exception e ->
        Observe.record_cells captured;
        raise e
  end

module Memo = struct
  type 'a table = {
    entries : (Key.t, 'a) Hashtbl.t;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    { entries = Hashtbl.create 32; lock = Mutex.create (); hits = 0; misses = 0 }

  let find_or_compute t key f =
    let cached =
      Mutex.lock t.lock;
      let v = Hashtbl.find_opt t.entries key in
      (match v with Some _ -> t.hits <- t.hits + 1 | None -> ());
      Mutex.unlock t.lock;
      v
    in
    match cached with
    | Some v -> v
    | None ->
        (* Compute outside the lock: cells are expensive and independent.
           On a concurrent double-compute the first store wins, so every
           caller returns the same (deterministic) value. *)
        let v = f () in
        Mutex.lock t.lock;
        let stored =
          match Hashtbl.find_opt t.entries key with
          | Some prior -> prior
          | None ->
              Hashtbl.replace t.entries key v;
              t.misses <- t.misses + 1;
              v
        in
        Mutex.unlock t.lock;
        stored

  let clear t =
    Mutex.lock t.lock;
    Hashtbl.reset t.entries;
    Mutex.unlock t.lock

  let hits t = t.hits
  let misses t = t.misses
end
