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

let check_names t names =
  iter_result (fun n -> Result.map ignore (Protocol.find_name t.db n)) names

let checkout t ~client ~names =
  let* () = check_names t names in
  Lock_table.acquire t.locks ~client names

let checkout_wait t ~client ?now ?sleep ~timeout ~names () =
  let* () = check_names t names in
  Lock_table.acquire_wait t.locks ~client ?now ?sleep ~timeout names

let release t ~client = Lock_table.release t.locks ~client

let locked_by t ~client = Lock_table.held_by t.locks ~client

let lock_stats t = Lock_table.stats t.locks

let checkin t ~client ops =
  (* names introduced by the batch itself (creations, rename targets)
     cannot be pre-locked; they are covered by construction. Names that
     do not denote an existing object or pattern cannot be locked
     either (checkout refuses them) — such an op fails inside the
     transaction with the precise error instead *)
  let exists n = Result.is_ok (Protocol.find_name t.db n) in
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
  (* one in-memory transaction, the outermost atomic step: on failure
     the rollback is a single root swap back to its savepoint — O(1),
     not O(ops applied) — and registered closures (attached procedures,
     transition rules) are never disturbed because the database
     instance is never replaced. Its publication on success is the
     check-in's one commit point (the ops inside are nested steps and
     publish nothing), so concurrent snapshots never observe a
     half-applied batch; it still precedes the flush below *)
  match
    Database.with_transaction t.db (fun () ->
        iter_result (fun op -> Result.map ignore (Protocol.apply t.db op)) ops)
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
