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
  let current = Seed_core.View.current (Database.raw t.db) in
  let exists n = Option.is_some (Seed_core.View.find_object current n) in
  (* whether one of the first [k] ops introduces [n] *)
  let rec introduced k n = function
    | (Protocol.Create_object { name; _ } | Protocol.Rename { new_name = name; _ }) :: _
      when k > 0 && String.equal name n ->
      true
    | _ :: rest when k > 0 -> introduced (k - 1) n rest
    | _ -> false
  in
  (* each name is checked as it is found: no list of them is built *)
  let* () =
    Lock_table.covers t.locks ~client (fun f ->
        List.iteri
          (fun k op ->
            Protocol.iter_touches op (fun n -> if (not (introduced k n ops)) && exists n then f n))
          ops)
  in
  (* one in-memory transaction, the outermost atomic step: on failure
     the rollback is a single root swap back to its savepoint — O(1),
     not O(ops applied) — and registered closures (attached procedures,
     transition rules) are never disturbed because the database
     instance is never replaced. Its publication on success is the
     check-in's one commit point (the ops inside are nested steps and
     publish nothing), so concurrent snapshots never observe a
     half-applied batch. A durable server flushes inside that step,
     after the ops: the batch is one frame on the store's journal,
     coalesced with concurrent check-ins into shared fsyncs, and it is
     published only once durable. A failed flush rolls the batch back
     like a failed op *)
  let apply () = iter_result (fun op -> Result.map ignore (Protocol.apply t.db op)) ops in
  match
    match t.session with
    | None -> Database.with_transaction t.db apply
    | Some session -> Seed_core.Persist.Session.transaction session apply
  with
  | Ok () ->
    ignore (Lock_table.release t.locks ~client);
    t.checkins <- t.checkins + 1;
    Ok ()
  | Error _ as e ->
    (* locks are kept: the client may fix the batch and retry *)
    e

let create_version t = Database.create_version t.db

let checkin_count t = t.checkins
