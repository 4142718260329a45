(* MVCC reader/writer equivalence stress.

   Each iteration runs one writer against N reader domains over a
   shared in-memory database. The writer applies randomized
   transactional batches (with occasional version snapshots and
   deliberate mid-transaction failures) and records the fingerprint of
   every state it publishes. The readers continuously pin snapshots
   ([Database.snapshot]) and check, on each one, the invariants the
   copy-on-write design promises:

   - a pinned snapshot is frozen: fingerprinting it twice, with writer
     commits in between, yields the same bytes;
   - every snapshot is internally consistent: the permanent consistency
     rules hold, and the query planner agrees with a naive table scan on
     the current view and on a version view;
   - every snapshot is a published state: its fingerprint appears in the
     writer's sequential history — no torn or intermediate state is ever
     observable, including states from inside transactions that later
     rolled back.

   After the domains join, the same op list is replayed sequentially on
   a fresh database and the final fingerprints are compared, so the
   concurrent run is provably equivalent to its sequential replay. The
   workload derives from [--seed]; failures are reproducible. *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query

let schema () = Spades_tool.Spec_model.schema

(* ------------------------------------------------------------------ *)
(* Symbolic workload (a trimmed-down soak.ml vocabulary)                *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * string
  | CreateSub of int * string
  | CreateRel of int * int * string
  | SetValue of int * string option
  | Rename of int * int
  | Reclassify of int * string
  | Delete of int

type step =
  | Batch of op list
  | FailingBatch of op list  (* aborts mid-flight: must be invisible *)
  | Stream of op list  (* unbatched: every successful op publishes *)
  | Snapshot

let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]
let roles = [ "Description"; "Keywords"; "Text" ]
let assocs = [ "Access"; "Read"; "Write" ]

let gen_op rng =
  let int n = Random.State.int rng n in
  let pick l = List.nth l (int (List.length l)) in
  match int 16 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> Create (int 60, pick classes)
  | 6 | 7 -> CreateSub (int 40, pick roles)
  | 8 | 9 -> CreateRel (int 40, int 40, pick assocs)
  | 10 | 11 ->
    SetValue
      (int 40, if int 4 = 0 then None else Some (Printf.sprintf "v%d" (int 100)))
  | 12 -> Rename (int 40, int 100)
  | 13 -> Reclassify (int 40, pick classes)
  | _ -> Delete (int 40)

let gen_steps rng =
  let nbatches = 8 + Random.State.int rng 4 in
  List.concat
    (List.init nbatches (fun _ ->
         let nops = 5 + Random.State.int rng 5 in
         let ops = List.init nops (fun _ -> gen_op rng) in
         match Random.State.int rng 6 with
         | 0 -> [ Batch ops; Snapshot ]
         | 1 -> [ FailingBatch ops; Batch ops ]
         | 2 | 3 -> [ Stream ops ]
         | _ -> [ Batch ops ]))

type env = {
  db : DB.t;
  mutable objects : Ident.t list;
  mutable subs : Ident.t list;
}

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let apply_op env op : (unit, Seed_error.t) result =
  match op with
  | Create (i, cls) ->
    Result.map
      (fun id -> env.objects <- id :: env.objects)
      (DB.create_object env.db ~cls ~name:(Printf.sprintf "obj%d" i) ())
  | CreateSub (p, role) -> (
    match pick env.objects p with
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
    | Some id -> DB.set_value env.db id (Option.map (fun s -> Value.String s) v))
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

(* ------------------------------------------------------------------ *)
(* Fingerprints over a frozen state                                     *)
(* ------------------------------------------------------------------ *)

let fingerprint st =
  let v = View.current st in
  let buf = Buffer.create 1024 in
  Db_state.fold_items st ~init:[] ~f:(fun acc it -> it :: acc)
  |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)
  |> List.iter (fun (it : Item.t) ->
         match View.state v it with
         | Item.Absent -> ()
         | Item.Obj o ->
           Buffer.add_string buf
             (Printf.sprintf "O%d:%s:%s:%s:%b:%b;"
                (Ident.to_int it.Item.id)
                (Option.value o.name ~default:"-")
                o.cls
                (match o.value with
                | Some v -> Value.to_string v
                | None -> "-")
                o.pattern o.deleted)
         | Item.Rel r ->
           Buffer.add_string buf
             (Printf.sprintf "R%d:%s:%s:%b;"
                (Ident.to_int it.Item.id)
                r.assoc
                (String.concat ","
                   (List.map
                      (fun i -> string_of_int (Ident.to_int i))
                      r.endpoints))
                r.rel_deleted));
  Buffer.add_string buf "|";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (n : Seed_core.Versioning.node) ->
            Version_id.to_string n.Seed_core.Versioning.vid)
          (Seed_core.Versioning.all (Db_state.versions st))));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-snapshot invariants                                              *)
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

let predicate_pool =
  List.concat_map (fun c -> [ Q.in_class c; Q.is_a c ]) classes
  @ [
      Q.name_is "obj3";
      Q.(in_class "Data" &&& is_a "Thing");
      Q.(in_class "InputData" ||| in_class "OutputData");
      Q.(not_ (is_a "Data"));
    ]

let planner_agrees v =
  List.for_all
    (fun p ->
      let planned = sorted_ids (Q.select v p) in
      planned = naive_select v p && Q.count v p = List.length planned)
    predicate_pool

(* ------------------------------------------------------------------ *)
(* Reader domains                                                       *)
(* ------------------------------------------------------------------ *)

exception Stress_failure of string

let failf fmt = Printf.ksprintf (fun m -> raise (Stress_failure m)) fmt

(* One reader: pin snapshots until [stop], checking each one. Returns
   the deduplicated fingerprints of every state it observed. *)
let reader ~iter ~db ~stop () =
  let observed = Hashtbl.create 64 in
  let checked = ref 0 in
  let check_snapshot () =
    let st = Db_state.freeze (DB.raw db) in
    let fp = fingerprint st in
    (* frozen: re-fingerprinting the same pinned snapshot after the
       writer has had time to commit more batches yields the same
       bytes *)
    for _ = 1 to 50 do
      Domain.cpu_relax ()
    done;
    if not (String.equal (fingerprint st) fp) then
      failf "iteration %d: pinned snapshot mutated under the reader" iter;
    let v = View.current st in
    (match Seed_core.Consistency.check_database v with
    | Ok () -> ()
    | Error e ->
      failf "iteration %d: snapshot fails the consistency sweep: %s" iter
        (Seed_error.to_string e));
    if not (planner_agrees v) then
      failf "iteration %d: planner disagrees with naive scan on a snapshot"
        iter;
    (* same checks through a version view, when the snapshot has one —
       this pins the materialized (sorted-array) version extents too *)
    (match Seed_core.Versioning.all (Db_state.versions st) with
    | [] -> ()
    | n :: _ ->
      let vv = View.at st n.Seed_core.Versioning.vid in
      if not (planner_agrees vv) then
        failf
          "iteration %d: planner disagrees with naive scan on a version view"
          iter);
    Hashtbl.replace observed fp ();
    incr checked
  in
  (* at least one full check even if the writer already finished *)
  check_snapshot ();
  while not (Atomic.get stop) do
    check_snapshot ()
  done;
  (!checked, Hashtbl.fold (fun fp () acc -> fp :: acc) observed [])

(* ------------------------------------------------------------------ *)
(* The writer and the iteration                                         *)
(* ------------------------------------------------------------------ *)

let apply_steps db steps ~record =
  let env = { db; objects = []; subs = [] } in
  List.iter
    (fun step ->
      match step with
      | Batch ops ->
        (match
           DB.with_transaction db (fun () ->
               Seed_error.iter_result (apply_op env) ops)
         with
        | Ok () | Error _ -> ());
        record ()
      | FailingBatch ops ->
        (* applies its ops, then aborts: the rollback is a root swap,
           so nothing of it may ever reach a published state *)
        (match
           DB.with_transaction db (fun () ->
               match Seed_error.iter_result (apply_op env) ops with
               | Error _ as e -> e
               | Ok () ->
                 Seed_error.fail
                   (Seed_error.Invalid_operation "mvcc-stress abort"))
         with
        | Ok () -> assert false
        | Error _ -> ());
        record ()
      | Stream ops ->
        (* each successful op commits and publishes its own root, so
           the record must land between ops, not after the stream *)
        List.iter
          (fun op ->
            (match apply_op env op with Ok () | Error _ -> ());
            record ())
          ops
      | Snapshot ->
        (match DB.create_version db with Ok _ | Error _ -> ());
        record ())
    steps

let n_readers = 2

let iteration ~seed ~iter ~verbose =
  let rng = Random.State.make [| seed; iter; 0x5eed |] in
  let steps = gen_steps rng in
  let db = DB.create (schema ()) in
  let published = Hashtbl.create 64 in
  let prev = ref (fingerprint (DB.raw db)) in
  Hashtbl.replace published !prev ();
  let record () =
    let fp = fingerprint (DB.raw db) in
    Hashtbl.replace published fp ();
    prev := fp
  in
  let stop = Atomic.make false in
  let readers =
    List.init n_readers (fun _ -> Domain.spawn (reader ~iter ~db ~stop))
  in
  let fail_check () =
    apply_steps db steps ~record;
    (* rolled-back batches must leave the published fingerprint where
       it was: check one explicit abort after the workload *)
    let before = fingerprint (DB.raw db) in
    (match
       DB.with_transaction db (fun () ->
           match
             DB.create_object db ~cls:"Action" ~name:"mvcc_stress_tail" ()
           with
           | Error _ as e -> Result.map (fun _ -> ()) e
           | Ok _ ->
             Seed_error.fail (Seed_error.Invalid_operation "tail abort"))
     with
    | Ok () -> failf "iteration %d: aborting transaction succeeded" iter
    | Error _ -> ());
    if not (String.equal (fingerprint (DB.raw db)) before) then
      failf "iteration %d: rollback left a trace in the state" iter
  in
  let writer_failure =
    match fail_check () with
    | () -> None
    | exception Stress_failure m -> Some m
  in
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  (match writer_failure with Some m -> raise (Stress_failure m) | None -> ());
  let snapshots_checked =
    List.fold_left (fun acc (c, _) -> acc + c) 0 results
  in
  List.iter
    (fun (_, fps) ->
      List.iter
        (fun fp ->
          if not (Hashtbl.mem published fp) then
            failf
              "iteration %d: a reader observed a state the writer never \
               published"
              iter)
        fps)
    results;
  (* the concurrent run is equivalent to a sequential replay of the
     same ops on a fresh database *)
  let db2 = DB.create (schema ()) in
  apply_steps db2 steps ~record:(fun () -> ());
  if
    not
      (String.equal (fingerprint (DB.raw db2)) (fingerprint (DB.raw db)))
  then failf "iteration %d: concurrent run differs from sequential replay" iter;
  if verbose then
    Printf.printf "iter %3d: steps=%d snapshots-checked=%d states=%d\n%!" iter
      (List.length steps) snapshots_checked (Hashtbl.length published)

let () =
  let iters = ref 25 and seed = ref 42 and verbose = ref false in
  let spec =
    [
      ("--iters", Arg.Set_int iters, "N  number of iterations (default 25)");
      ("--seed", Arg.Set_int seed, "N  base random seed (default 42)");
      ("-v", Arg.Set verbose, "  one line per iteration");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "mvcc_stress [--iters N] [--seed N] [-v]";
  (try
     for i = 0 to !iters - 1 do
       iteration ~seed:!seed ~iter:i ~verbose:!verbose
     done
   with Stress_failure m ->
     Printf.eprintf "MVCC STRESS FAILURE: %s\n%!" m;
     exit 1);
  Printf.printf
    "mvcc stress OK: %d iterations x %d reader domains (seed %d), all \
     snapshots consistent and published\n%!"
    !iters n_readers !seed
