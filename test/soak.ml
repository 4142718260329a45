(* Chaos soak harness.

   Each iteration runs a randomized transactional workload — batches of
   random operations applied through [Database.with_transaction] and
   flushed through [Persist.Session] — under [Faulty_io] with a crash
   scheduled at a random I/O step, then recovers and checks the
   invariants the transaction machinery promises:

   - no partially applied transaction is visible: the recovered state is
     semantically identical to a flush boundary at or after the last
     acknowledged one (with [`Always_fsync], an acknowledged flush can
     never be lost, and an in-flight one is all-or-nothing);
   - the recovered state passes the full consistency sweep;
   - the query planner agrees with a naive table scan on the recovered
     state, on the current view and on every version view;
   - [Store.fsck] runs on the crashed directory, and is healthy again
     after recovery;
   - a read-fault pass reopens the recovered directory under injected
     wire-level read faults (EINTR bursts, a flipped bit, a short read)
     and checks the self-healing layer absorbs them: the open succeeds,
     the state is bit-identical, and nothing is quarantined or
     truncated.

   The workload, crash point, torn-write choice and read-fault schedule
   all derive from [--seed], so a failing iteration is reproducible
   bit-for-bit. *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query
module Persist = Seed_core.Persist
module Store = Seed_storage.Store
module Faulty = Seed_storage.Faulty_io

let schema () = Spades_tool.Spec_model.schema

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_soak_%d_%d" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* Symbolic workloads                                                   *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * string
  | CreatePattern of int
  | CreateSub of int * string
  | CreateRel of int * int * string
  | SetValue of int * string option
  | Rename of int * int
  | Reclassify of int * string
  | Delete of int
  | Inherit of int * int

type step =
  | Batch of op list  (* one transaction, then a flush *)
  | Snapshot  (* create_version, then a flush *)
  | Branch of int  (* begin_alternative, then a flush *)
  | Compact

let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]
let roles = [ "Description"; "Keywords"; "Text"; "Revised" ]
let assocs = [ "Access"; "Read"; "Write"; "Contained" ]

let gen_op rng =
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  match int 20 with
  | 0 | 1 | 2 | 3 | 4 -> Create (int 60, pick classes)
  | 5 -> CreatePattern (int 40)
  | 6 | 7 | 8 -> CreateSub (int 40, pick roles)
  | 9 | 10 | 11 -> CreateRel (int 40, int 40, pick assocs)
  | 12 | 13 ->
    SetValue
      ( int 40,
        if int 4 = 0 then None
        else if int 3 = 0 then
          (* longer bodies give the trigram index real content *)
          Some (Printf.sprintf "spec %d revises the recovery path" (int 100))
        else Some (Printf.sprintf "v%d" (int 100)) )
  | 14 -> Rename (int 40, int 100)
  | 15 | 16 -> Reclassify (int 40, pick classes)
  | 17 -> Delete (int 40)
  | _ -> Inherit (int 40, int 40)

let gen_steps rng =
  (* at least 9 x 6 = 54 data ops per iteration, split into
     transactional batches with occasional version and compaction steps
     in between *)
  let nbatches = 9 + Random.State.int rng 4 in
  List.concat
    (List.init nbatches (fun _ ->
         let nops = 6 + Random.State.int rng 4 in
         let batch = Batch (List.init nops (fun _ -> gen_op rng)) in
         match Random.State.int rng 6 with
         | 0 -> [ batch; Snapshot ]
         | 1 -> [ batch; Branch (Random.State.int rng 8) ]
         | 2 -> [ batch; Compact ]
         | _ -> [ batch ]))

let count_ops steps =
  List.fold_left
    (fun n -> function Batch ops -> n + List.length ops | _ -> n)
    0 steps

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

type env = {
  db : DB.t;
  mutable objects : Ident.t list;
  mutable subs : Ident.t list;
  mutable patterns : Ident.t list;
  mutable versions : Version_id.t list;
}

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let apply_op env op : (unit, Seed_error.t) result =
  match op with
  | Create (i, cls) ->
    Result.map
      (fun id -> env.objects <- id :: env.objects)
      (DB.create_object env.db ~cls ~name:(Printf.sprintf "obj%d" i) ())
  | CreatePattern i ->
    Result.map
      (fun id -> env.patterns <- id :: env.patterns)
      (DB.create_object env.db ~cls:"Data"
         ~name:(Printf.sprintf "pat%d" i)
         ~pattern:true ())
  | CreateSub (p, role) -> (
    match pick (env.objects @ env.patterns) p with
    | None -> Ok ()
    | Some parent ->
      let value =
        if role = "Description" || role = "Keywords" then
          Some (Value.String "x")
        else None
      in
      Result.map
        (fun id -> env.subs <- id :: env.subs)
        (DB.create_sub_object env.db ~parent ~role ?value ()))
  | CreateRel (a, b, assoc) -> (
    match (pick env.objects a, pick env.objects b) with
    | Some x, Some y ->
      Result.map
        (fun _ -> ())
        (DB.create_relationship env.db ~assoc ~endpoints:[ x; y ] ())
    | _ -> Ok ())
  | SetValue (i, v) -> (
    match pick env.subs i with
    | None -> Ok ()
    | Some id ->
      DB.set_value env.db id (Option.map (fun s -> Value.String s) v))
  | Rename (i, n) -> (
    match pick env.objects i with
    | None -> Ok ()
    | Some id -> DB.rename_object env.db id (Printf.sprintf "obj%d" n))
  | Reclassify (i, cls) -> (
    match pick env.objects i with
    | None -> Ok ()
    | Some id -> DB.reclassify env.db id ~to_:cls)
  | Delete i -> (
    match pick (env.objects @ env.subs) i with
    | None -> Ok ()
    | Some id -> DB.delete env.db id)
  | Inherit (p, i) -> (
    match (pick env.patterns p, pick env.objects i) with
    | Some pattern, Some inheritor ->
      DB.inherit_pattern env.db ~pattern ~inheritor
    | _ -> Ok ())

(* A semantic dump of the current view plus the version-tree labels:
   two databases with equal fingerprints are the same database as far
   as the data model is concerned. *)
let fingerprint db =
  let st = DB.raw db in
  let v = View.current st in
  let buf = Buffer.create 1024 in
  Db_state.fold_items st ~init:[] ~f:(fun acc it -> it :: acc)
  |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)
  |> List.iter (fun (it : Item.t) ->
         match View.state v it with
         | None -> ()
         | Some (Item.Obj o) ->
           Buffer.add_string buf
             (Printf.sprintf "O%d:%s:%s:%s:%b:%b:%s;"
                (Ident.to_int it.Item.id)
                (Option.value o.Item.name ~default:"-")
                o.Item.cls
                (match o.Item.value with
                | Some v -> Value.to_string v
                | None -> "-")
                o.Item.pattern o.Item.deleted
                (String.concat ","
                   (List.map
                      (fun i -> string_of_int (Ident.to_int i))
                      o.Item.inherits)))
         | Some (Item.Rel r) ->
           Buffer.add_string buf
             (Printf.sprintf "R%d:%s:%s:%b:%b;"
                (Ident.to_int it.Item.id)
                r.Item.assoc
                (String.concat ","
                   (List.map
                      (fun i -> string_of_int (Ident.to_int i))
                      r.Item.endpoints))
                r.Item.rel_pattern r.Item.rel_deleted));
  Buffer.add_string buf "|";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (n : Seed_core.Versioning.node) ->
            Version_id.to_string n.Seed_core.Versioning.vid)
          (DB.versions db)));
  Buffer.contents buf

(* The incrementally maintained trigram index must equal a wholesale
   rebuild from the item table — checked after the live workload (where
   every create/update/delete/re-classify/rollback/branch maintained it
   hook by hook) and again on the recovered state. *)
let text_index_consistent db =
  let st = DB.raw db in
  match Db_state.text_index st with
  | None -> true
  | Some tx -> Seed_core.Text_index.equal tx (Db_state.rebuilt_text_index st)

(* Runs the whole workload against [dir] through [io]. [acked] always
   holds the fingerprint of the last acknowledged flush; [pending] the
   fingerprint an in-flight flush would establish. A [Faulty.Crash]
   escapes to the caller with both refs at their moment-of-crash
   values. *)
let run ~io ~dir ~steps ~acked ~pending =
  let s =
    Seed_error.ok_exn
      (Persist.Session.open_ ~dir ~schema:(schema ()) ~io ~sync:`Always_fsync
         ())
  in
  let db = Persist.Session.db s in
  let env = { db; objects = []; subs = []; patterns = []; versions = [] } in
  let flush () =
    pending := Some (fingerprint db);
    Seed_error.ok_exn (Persist.Session.flush s);
    acked := Option.get !pending;
    pending := None
  in
  List.iter
    (fun step ->
      match step with
      | Batch ops ->
        (* all-or-nothing: a failing op rolls the whole batch back via
           the undo log; either way the database is in a transaction
           boundary state, which the flush makes durable *)
        (match
           DB.with_transaction db (fun () ->
               Seed_error.iter_result (apply_op env) ops)
         with
        | Ok () | Error _ -> ());
        flush ()
      | Snapshot ->
        (match DB.create_version db with
        | Ok v -> env.versions <- v :: env.versions
        | Error _ -> ());
        flush ()
      | Branch i ->
        (match pick env.versions i with
        | None -> ()
        | Some v ->
          ignore (DB.begin_alternative db ~from_:v ~force:true ()));
        flush ()
      | Compact -> Seed_error.ok_exn (Persist.Session.compact s))
    steps;
  if not (text_index_consistent db) then
    invalid_arg "soak: incrementally maintained text index diverged";
  Persist.Session.close s

(* ------------------------------------------------------------------ *)
(* Recovered-state invariants                                           *)
(* ------------------------------------------------------------------ *)

let sorted_ids items =
  List.map (fun (it : Item.t) -> it.Item.id) items |> List.sort Ident.compare

let naive_select v p =
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      if
        it.Item.body = Item.Independent
        && View.live_normal v it
        && Q.test p v it
      then it.Item.id :: acc
      else acc)
  |> List.sort Ident.compare

let naive_select_rels v ~assoc =
  let schema = View.schema v in
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      match (it.Item.body, View.rel_state v it) with
      | Item.Relationship, Some rs
        when View.live_normal v it
             && Schema.assoc_is_a schema ~sub:rs.Item.assoc ~super:assoc ->
        it.Item.id :: acc
      | _ -> acc)
  |> List.sort Ident.compare

let predicate_pool =
  List.concat_map (fun c -> [ Q.in_class c; Q.is_a c ]) classes
  @ [
      Q.name_is "obj3";
      Q.name_is "no-such-object";
      Q.(in_class "Data" &&& is_a "Thing");
      Q.(in_class "InputData" ||| in_class "OutputData");
      Q.(not_ (is_a "Data"));
      (* text containment: indexed, conjunctive, selective, negative,
         short-needle scan fallback, and combined with a class bound *)
      Q.contains "" "recovery";
      Q.contains "" "v1";
      Q.matches "" [ "spec"; "recovery path" ];
      Q.contains "" "no-such-needle";
      Q.contains "" "v";
      Q.(is_a "Data" &&& contains "" "revises");
    ]

let planner_agrees db =
  let st = DB.raw db in
  let views =
    View.current st
    :: List.map
         (fun (n : Seed_core.Versioning.node) ->
           View.at st n.Seed_core.Versioning.vid)
         (DB.versions db)
  in
  List.for_all
    (fun v ->
      List.for_all
        (fun p ->
          let planned = sorted_ids (Q.select v p) in
          planned = naive_select v p && Q.count v p = List.length planned)
        predicate_pool
      && List.for_all
           (fun assoc ->
             sorted_ids (Q.select_rels v ~assoc) = naive_select_rels v ~assoc)
           ("NoSuchAssoc" :: assocs))
    views

(* ------------------------------------------------------------------ *)
(* The soak loop                                                        *)
(* ------------------------------------------------------------------ *)

exception Soak_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Soak_failure m)) fmt

let iteration ~seed ~iter ~verbose =
  let rng = Random.State.make [| seed; iter |] in
  let steps = gen_steps rng in
  let empty_fp = fingerprint (DB.create (schema ())) in
  (* dry run: count the workload's I/O steps and make sure it completes *)
  let probe = Faulty.create () in
  let acked = ref empty_fp and pending = ref None in
  run ~io:(Faulty.io probe) ~dir:(tmp_dir ()) ~steps ~acked ~pending;
  let total = Faulty.steps probe in
  (* a quiet workload (every batch rolled back, deltas empty) can be
     down to a handful of steps; all we need is somewhere to crash *)
  if total < 2 then failf "iteration %d: only %d I/O steps" iter total;
  (* crash run: same workload, crash at a random I/O step *)
  let crash_at = Random.State.int rng total in
  let torn = Random.State.bool rng in
  let dir = tmp_dir () in
  let f = Faulty.create ~crash_at ~torn () in
  let acked = ref empty_fp and pending = ref None in
  (try
     run ~io:(Faulty.io f) ~dir ~steps ~acked ~pending;
     failf "iteration %d: crash at step %d/%d did not fire" iter crash_at
       total
   with Faulty.Crash _ -> ());
  (* fsck must run on the crashed directory; on odd iterations let it
     repair, after which recovery must be clean *)
  let report = Seed_error.ok_exn (Store.fsck dir) in
  let repaired = iter mod 2 = 1 in
  if repaired then ignore (Seed_error.ok_exn (Store.fsck ~repair:true dir));
  (* recover and check the invariants *)
  let s = Seed_error.ok_exn (Persist.Session.open_ ~dir ~schema:(schema ()) ()) in
  let db = Persist.Session.db s in
  if repaired && not (Store.recovery_clean (Persist.Session.recovery s)) then
    failf "iteration %d: open not clean after fsck --repair" iter;
  let fp = fingerprint db in
  let where =
    if String.equal fp !acked then Some "acked"
    else
      match !pending with
      | Some p when String.equal fp p -> Some "in-flight"
      | _ -> None
  in
  (match where with
  | Some _ -> ()
  | None ->
    failf
      "iteration %d (crash@%d/%d torn=%b): recovered state is neither the \
       last acknowledged flush nor the in-flight one — a partially applied \
       transaction is visible"
      iter crash_at total torn);
  (match
     Seed_core.Consistency.check_database (View.current (DB.raw db))
   with
  | Ok () -> ()
  | Error e ->
    failf "iteration %d: consistency sweep failed: %s" iter
      (Seed_error.to_string e));
  if not (planner_agrees db) then
    failf "iteration %d: planner disagrees with naive scan after recovery"
      iter;
  if not (text_index_consistent db) then
    failf "iteration %d: text index inconsistent after recovery" iter;
  Persist.Session.close s;
  (* recovery healed the directory: fsck is happy now *)
  let after = Seed_error.ok_exn (Store.fsck dir) in
  if not after.Store.fsck_healthy then
    failf "iteration %d: store unhealthy after recovery:\n%s" iter
      (Format.asprintf "%a" Store.pp_fsck_report after);
  (* read-fault pass: the directory is intact, so wire-level read
     faults must be absorbed by retry and the double-check re-read —
     same state, clean recovery, nothing quarantined or truncated *)
  let probe_r = Faulty.create () in
  let nreads =
    let s =
      Seed_error.ok_exn
        (Persist.Session.open_ ~dir ~schema:(schema ())
           ~io:(Faulty.io probe_r) ())
    in
    Persist.Session.close s;
    max 1 (Faulty.reads probe_r)
  in
  let fault_kind, fr =
    match Random.State.int rng 3 with
    | 0 -> ("transient", Faulty.create ~transient_reads:(1 + Random.State.int rng 3) ())
    | 1 -> ("flip", Faulty.create ~flip_read:(Random.State.int rng nreads) ())
    | _ -> ("short", Faulty.create ~short_read:(Random.State.int rng nreads) ())
  in
  let s =
    Seed_error.ok_exn
      (Persist.Session.open_ ~dir ~schema:(schema ()) ~io:(Faulty.io fr)
         ~sleep:(fun _ -> ()) ())
  in
  let r = Persist.Session.recovery s in
  if not (Store.recovery_clean r) then
    failf "iteration %d: %s read fault not absorbed: %s" iter fault_kind
      (Format.asprintf "%a" Store.pp_recovery r);
  if not (String.equal (fingerprint (Persist.Session.db s)) fp) then
    failf "iteration %d: state differs under %s read fault" iter fault_kind;
  Persist.Session.close s;
  if verbose then
    Printf.printf
      "iter %3d: ops=%d io-steps=%d crash@%d torn=%b torn-bytes=%d \
       quarantined=%d read-fault=%s retries=%d -> %s\n%!"
      iter (count_ops steps) total crash_at torn report.Store.fsck_torn_bytes
      report.Store.fsck_quarantined_regions fault_kind r.Store.io_retries
      (Option.value ~default:"?" where)

let () =
  let iters = ref 25
  and seed = ref 42
  and verbose = ref false in
  let spec =
    [
      ("--iters", Arg.Set_int iters, "N  number of iterations (default 25)");
      ("--seed", Arg.Set_int seed, "N  base random seed (default 42)");
      ("-v", Arg.Set verbose, "  one line per iteration");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "soak [--iters N] [--seed N] [-v]";
  (try
     for i = 0 to !iters - 1 do
       iteration ~seed:!seed ~iter:i ~verbose:!verbose
     done
   with Soak_failure m ->
     Printf.eprintf "SOAK FAILURE: %s\n%!" m;
     exit 1);
  Printf.printf
    "soak OK: %d iterations (seed %d), all invariants held\n%!" !iters !seed
