open Seed_util
open Seed_error
module Database = Seed_core.Database

type t = {
  db : Database.t;
  locks : Lock_table.t;
  mutable checkins : int;
  session : Seed_core.Persist.Session.t option;
}

let create schema =
  {
    db = Database.create schema;
    locks = Lock_table.create ();
    checkins = 0;
    session = None;
  }

let of_session session =
  {
    db = Seed_core.Persist.Session.db session;
    locks = Lock_table.create ();
    checkins = 0;
    session = Some session;
  }

let database t = t.db

(* retrieval never goes through the lock table: a snapshot is an O(1)
   grab of the last published root, immutable from then on, so readers
   — including ones running in other domains — proceed while writers
   commit *)
let snapshot t = Database.snapshot_view t.db

(* the one name-existence check: an object, else a pattern *)
let resolve_obj db name =
  match Database.find_object db name with
  | Some id -> Ok id
  | None -> (
    match Database.find_pattern db name with
    | Some id -> Ok id
    | None -> fail (Unknown_object name))

let check_names t names =
  iter_result (fun n -> Result.map ignore (resolve_obj t.db n)) names

let checkout t ~client ~names =
  let* () = check_names t names in
  Lock_table.acquire t.locks ~client names

let checkout_wait t ~client ?now ?sleep ~timeout ~names () =
  let* () = check_names t names in
  Lock_table.acquire_wait t.locks ~client ?now ?sleep ~timeout names

let release t ~client = Lock_table.release t.locks ~client

let locked_by t ~client = Lock_table.held_by t.locks ~client

let lock_stats t = Lock_table.stats t.locks

let resolve_path db path =
  match Database.resolve db path with
  | Some id -> Ok id
  | None -> (
    (* resolve does not see patterns; fall back for pattern roots *)
    match Database.find_pattern db path with
    | Some id -> Ok id
    | None -> fail (Unknown_object path))

let find_rel db ~assoc ~endpoints =
  let* ids = map_result (resolve_obj db) endpoints in
  let candidates =
    match ids with
    | first :: _ -> Database.relationships db first
    | [] -> []
  in
  let matching =
    List.find_opt
      (fun r ->
        (match Database.assoc_of db r with
        | Some a -> String.equal a assoc
        | None -> false)
        && List.equal Ident.equal (Database.endpoints db r) ids)
      candidates
  in
  match matching with
  | Some r -> Ok r
  | None ->
    fail
      (Unknown_item
         (Printf.sprintf "%s(%s)" assoc (String.concat ", " endpoints)))

let apply_op db (op : Protocol.op) =
  match op with
  | Protocol.Create_object { cls; name; pattern } ->
    let* _ = Database.create_object db ~cls ~name ~pattern () in
    Ok ()
  | Protocol.Create_sub { owner; role; index; value } ->
    let* parent = resolve_path db owner in
    let* _ = Database.create_sub_object db ~parent ~role ?index ?value () in
    Ok ()
  | Protocol.Create_rel { assoc; endpoints; pattern } ->
    let* ids = map_result (resolve_obj db) endpoints in
    let* _ = Database.create_relationship db ~assoc ~endpoints:ids ~pattern () in
    Ok ()
  | Protocol.Set_value { path; value } ->
    let* id = resolve_path db path in
    Database.set_value db id value
  | Protocol.Rename { name; new_name } ->
    let* id = resolve_obj db name in
    Database.rename_object db id new_name
  | Protocol.Reclassify_obj { name; to_ } ->
    let* id = resolve_obj db name in
    Database.reclassify db id ~to_
  | Protocol.Reclassify_rel { assoc; endpoints; to_ } ->
    let* rel = find_rel db ~assoc ~endpoints in
    Database.reclassify db rel ~to_
  | Protocol.Delete { path } ->
    let* id = resolve_path db path in
    Database.delete db id
  | Protocol.Inherit { pattern; inheritor } ->
    let* p = resolve_obj db pattern in
    let* i = resolve_obj db inheritor in
    Database.inherit_pattern db ~pattern:p ~inheritor:i

let checkin t ~client ops =
  (* names introduced by the batch itself (creations, rename targets)
     cannot be pre-locked; they are covered by construction. Names that
     do not denote an existing object or pattern cannot be locked
     either (checkout refuses them) — such an op fails inside the
     transaction with the precise error instead *)
  let exists n =
    Database.find_object t.db n <> None
    || Database.find_pattern t.db n <> None
  in
  let _, touched =
    List.fold_left
      (fun (introduced, touched) op ->
        let needed =
          List.filter
            (fun n -> (not (List.mem n introduced)) && exists n)
            (Protocol.touches op)
        in
        let introduced =
          match op with
          | Protocol.Create_object { name; _ } -> name :: introduced
          | Protocol.Rename { new_name; _ } -> new_name :: introduced
          | _ -> introduced
        in
        (introduced, needed @ touched))
      ([], []) ops
  in
  let touched = List.sort_uniq String.compare touched in
  let* () = Lock_table.covers t.locks ~client touched in
  (* one in-memory transaction: on failure the rollback is a single
     root swap back to the savepoint — O(1), not O(ops applied) — and
     registered closures (attached procedures, transition rules) are
     never disturbed because the database instance is never replaced;
     no intermediate root is published, so concurrent snapshots never
     observe a half-applied batch *)
  match
    Database.with_transaction t.db (fun () -> iter_result (apply_op t.db) ops)
  with
  | Ok () ->
    (* a durable server publishes the committed batch through the
       store's group-commit daemon: the flush is one transaction, one
       frame on the store's single journal, and concurrent checkins coalesce
       into shared fsyncs. On a flush failure the locks are
       kept and the root's unflushed set is not cleared, so a later
       flush (or checkin) retries exactly the same records *)
    let* () =
      match t.session with
      | None -> Ok ()
      | Some session -> Seed_core.Persist.Session.flush session
    in
    ignore (Lock_table.release t.locks ~client);
    t.checkins <- t.checkins + 1;
    Ok ()
  | Error _ as e ->
    (* locks are kept: the client may fix the batch and retry *)
    e

let create_version t = Database.create_version t.db

let checkin_count t = t.checkins
