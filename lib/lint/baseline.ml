(* The ratchet: a committed LINT_baseline.json grandfathers known
   findings per (file, rule) so new rules can land with the repo still
   gating. Semantics:

   - a finding beyond the baselined count for its (file, rule) is
     FRESH and fails the run;
   - findings within the count are GRANDFATHERED and render as
     warnings;
   - a baselined count higher than what the tree now produces is STALE
     and also fails the run — the baseline may only shrink, and the
     shrink must be committed (--update-baseline writes it).

   Counts rather than line numbers key the ratchet, so unrelated edits
   that shift code do not churn the file. Within one (file, rule) the
   findings sorted by (line, col) fill the grandfathered quota first;
   the attribution is deterministic even if not always the historically
   "same" site, which is the price of line-independence. *)

module Codec = Armvirt_obs.Codec

type entry = { file : string; rule : Rules.id; count : int }

type t = entry list (* sorted by (file, rule) *)

let version = 1

let compare_entry a b =
  match String.compare a.file b.file with
  | 0 -> String.compare (Rules.to_string a.rule) (Rules.to_string b.rule)
  | c -> c

let empty : t = []

(* --- building from findings ------------------------------------------ *)

let of_findings findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Pass.finding) ->
      let key = (f.Pass.file, f.Pass.rule) in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None -> Hashtbl.add tbl key (ref 1))
    findings;
  Hashtbl.fold
    (fun (file, rule) count acc -> { file; rule; count = !count } :: acc)
    tbl []
  |> List.sort compare_entry

(* --- the check -------------------------------------------------------- *)

type verdict = {
  fresh : Pass.finding list;
  grandfathered : Pass.finding list;
  stale : entry list;  (* baselined counts the tree no longer produces *)
}

let check (baseline : t) findings =
  let quota = Hashtbl.create 16 in
  List.iter
    (fun e -> Hashtbl.replace quota (e.file, Rules.to_string e.rule) e.count)
    baseline;
  let fresh = ref [] and grandfathered = ref [] in
  List.iter
    (fun (f : Pass.finding) ->
      let key = (f.Pass.file, Rules.to_string f.Pass.rule) in
      match Hashtbl.find_opt quota key with
      | Some n when n > 0 ->
          Hashtbl.replace quota key (n - 1);
          grandfathered := f :: !grandfathered
      | _ -> fresh := f :: !fresh)
    (List.sort
       (fun (a : Pass.finding) b ->
         match String.compare a.Pass.file b.Pass.file with
         | 0 -> Pass.compare_finding a b
         | c -> c)
       findings);
  let stale =
    List.filter_map
      (fun e ->
        match Hashtbl.find_opt quota (e.file, Rules.to_string e.rule) with
        | Some n when n > 0 -> Some { e with count = n }
        | _ -> None)
      baseline
  in
  {
    fresh = List.rev !fresh;
    grandfathered = List.rev !grandfathered;
    stale;
  }

(* --- rendering -------------------------------------------------------- *)

let render (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"version\": %d,\n  \"entries\": [" version);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"file\": \"%s\", \"rule\": \"%s\", \
                         \"count\": %d }"
           (Codec.escape_json e.file) (Rules.to_string e.rule) e.count))
    t;
  if t <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)
(* A decoder over the shared JSON parser: every key [render] writes is
   required, the version must match, rules must be known and counts
   non-negative integers. *)

let parse (s : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let obj what = function
    | Codec.Obj kvs -> Ok kvs
    | _ -> Error (what ^ ": expected an object")
  in
  let field kvs key =
    match List.assoc_opt key kvs with
    | Some v -> Ok v
    | None -> Error ("missing key " ^ key)
  in
  let int_field kvs key =
    match field kvs key with
    | Ok (Codec.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | Ok _ -> Error (key ^ ": expected an integer")
    | Error e -> Error e
  in
  let entry j =
    let* kvs = obj "entry" j in
    let* file = field kvs "file" in
    let* rule = field kvs "rule" in
    let* count = int_field kvs "count" in
    match (file, rule) with
    | Codec.Str file, Codec.Str rule_s -> (
        match Rules.of_string rule_s with
        | None -> Error ("unknown rule " ^ rule_s)
        | Some _ when count < 0 -> Error "negative count"
        | Some rule -> Ok { file; rule; count })
    | _ -> Error "entry: file and rule must be strings"
  in
  let* doc = Codec.parse_json s in
  let* top = obj "baseline" doc in
  let* v = int_field top "version" in
  if v <> version then Error (Printf.sprintf "unsupported baseline version %d" v)
  else
    let* entries = field top "entries" in
    match entries with
    | Codec.Arr l ->
        let* entries =
          List.fold_right
            (fun j acc ->
              let* acc = acc in
              let* e = entry j in
              Ok (e :: acc))
            l (Ok [])
        in
        Ok (List.sort compare_entry entries)
    | _ -> Error "entries: expected an array"

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let source =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      parse source
