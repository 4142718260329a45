(* Durable storage: snapshot/journal roundtrips, sessions, crash
   recovery, verification on load. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module History = Seed_core.History

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_persist_%d_%d" (Unix.getpid ()) !counter)

let populated () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _body =
    ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ())
  in
  let _rel = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms; handler ] ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db alarms ~to_:"OutputData");
  let _v2 = ok (DB.create_version db) in
  let p = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:p ~role:"Description" ~value:(Value.String "std") ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:alarms);
  (db, alarms, v1)

let same_shape db db2 =
  Alcotest.(check int) "objects" (DB.object_count db) (DB.object_count db2);
  Alcotest.(check int) "versions" (List.length (DB.versions db))
    (List.length (DB.versions db2));
  Alcotest.(check bool) "base" true (Seed_core.Db_state.current_base (DB.raw db) = Seed_core.Db_state.current_base (DB.raw db2))

let test_encode_decode_roundtrip () =
  let db, alarms, v1 = populated () in
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  same_shape db db2;
  let alarms2 = Option.get (DB.find_object db2 "Alarms") in
  Alcotest.(check (option string)) "class survives" (Some "OutputData")
    (DB.class_of db2 alarms2);
  (* version views survive *)
  ok (DB.select_version db2 (Some v1));
  Alcotest.(check (option string)) "old class" (Some "Data") (DB.class_of db2 alarms2);
  ok (DB.select_version db2 None);
  (* pattern inheritance survives *)
  let p2 = Option.get (DB.find_pattern db2 "Template") in
  Alcotest.(check bool) "inheritors" true (Seed_core.View.inheritors_of (DB.view db2) p2 <> []);
  (* identity is preserved *)
  Alcotest.(check bool) "ids stable" true (Ident.equal alarms alarms2);
  (* dirty state survives: the inherit was not snapshotted *)
  Alcotest.(check bool) "still dirty" true (DB.is_dirty db2)

let test_save_load () =
  let dir = tmp_dir () in
  let db, _, _ = populated () in
  check_ok "save" (Persist.save db ~dir);
  let db2 = ok (Persist.load ~dir ()) in
  same_shape db db2

let test_load_missing () =
  check_err "missing dir content"
    (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.load ~dir:(tmp_dir ()) ())

let test_session_flush_and_reopen () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  check_ok "flush1" (Persist.Session.flush s);
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  check_ok "value" (Result.map (fun _ -> ())
    (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()));
  check_ok "flush3" (Persist.Session.flush s);
  Persist.Session.close s;
  (* reopen: journal replay rebuilds everything *)
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check int) "objects" 2 (DB.object_count db2);
  Alcotest.(check bool) "sub-object too" true
    (DB.resolve db2 "A.Description" <> None);
  Persist.Session.close s2

(* The flush writes exactly the root's unflushed set: a new object is
   one item record, one changed value in a store of 1000 objects is one
   item record however large the table around it, and no change writes
   nothing. *)
let test_session_flush_writes_only_changes () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  for i = 1 to 1000 do
    ignore (ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()))
  done;
  let a = Option.get (DB.find_object db "O500") in
  let d =
    ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "x") ())
  in
  check_ok "flush" (Persist.Session.flush s);
  Alcotest.(check int) "nothing unflushed" 0
    (Ident.Set.cardinal (Seed_core.Db_state.unflushed (DB.raw db)));
  let after_first = Persist.Session.journal_records s in
  (* one more object -> one item record; the id counter it moves is no
     meta change (reopen takes the max of the loaded ids) *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Extra" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  let after_second = Persist.Session.journal_records s in
  Alcotest.(check int) "incremental" 1 (after_second - after_first);
  (* no changes -> no records *)
  check_ok "noop flush" (Persist.Session.flush s);
  Alcotest.(check int) "nothing written" after_second (Persist.Session.journal_records s);
  (* one changed value -> one item record *)
  check_ok "set" (DB.set_value db d (Some (Value.String "y")));
  check_ok "flush3" (Persist.Session.flush s);
  Alcotest.(check int) "one item record" 1
    (Persist.Session.journal_records s - after_second);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "value durable" true
    (DB.get_value db2 d = Some (Value.String "y"));
  Persist.Session.close s2

(* A flush inside an open transaction is refused: a rollback restores
   the root's unflushed set, which would forget records written during
   the transaction while the store still holds them. *)
let test_session_flush_refused_in_transaction () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  check_err "rolled back"
    (function Seed_error.Invalid_operation "roll back" -> true | _ -> false)
    (DB.with_transaction db (fun () ->
         let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
         check_err "flush in transaction"
           (function Seed_error.Invalid_operation _ -> true | _ -> false)
           (Persist.Session.flush s);
         Seed_error.fail (Seed_error.Invalid_operation "roll back")));
  Alcotest.(check int) "rollback restores the unflushed set" 0
    (Ident.Set.cardinal (Seed_core.Db_state.unflushed (DB.raw db)));
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  Alcotest.(check bool) "rolled-back object not durable" true
    (DB.find_object (Persist.Session.db s2) "A" = None);
  Persist.Session.close s2

(* A branch switch rewrites every item record in memory, but only the
   items whose state differs between the two versions are flushed —
   also after a reopen, where current and history states are distinct
   decoded values. *)
let test_session_flush_after_branch_switch () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let objs =
    List.init 20 (fun i ->
        ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()))
  in
  let v1 = ok (DB.create_version db) in
  List.iteri
    (fun i id ->
      if i < 3 then check_ok "rename" (DB.rename_object db id (Printf.sprintf "R%d" i)))
    objs;
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"New" ()) in
  let _v2 = ok (DB.create_version db) in
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  let s = ok (Persist.Session.open_ ~dir ()) in
  let db = Persist.Session.db s in
  let before = Persist.Session.journal_records s in
  check_ok "switch" (DB.begin_alternative db ~from_:v1 ~force:true ());
  check_ok "flush2" (Persist.Session.flush s);
  (* 3 renamed + 1 created since v1, plus the meta record (new base) *)
  Alcotest.(check int) "only the differing items" 5
    (Persist.Session.journal_records s - before);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "v1 names back" true
    (DB.find_object db2 "O0" <> None && DB.find_object db2 "R0" = None);
  Alcotest.(check bool) "v2-only object gone" true (DB.find_object db2 "New" = None);
  Persist.Session.close s2

(* The meta a store holds: the schema revisions, the version tree and
   the current base. *)
let meta_of db =
  let st = DB.raw db in
  ( List.map
      (fun (rev, sc) -> (rev, Schema.revision sc, Schema_text.print sc))
      (Seed_core.Db_state.schemas st),
    Seed_core.Versioning.dump (Seed_core.Db_state.versions st),
    Option.map Version_id.to_string (Seed_core.Db_state.current_base (DB.raw db)) )

let item_ids db =
  Seed_core.Db_state.fold_items (DB.raw db) ~init:[] ~f:(fun acc (it : Seed_core.Item.t) ->
      it.Seed_core.Item.id :: acc)

(* A flush writes no meta record for a moved id counter, so after a
   crash the counter is the max of the loaded ids: a create after
   recovery still gets an id no durable item has. An id burned by a
   rolled-back create was never durable and may be handed out again. *)
let test_fresh_id_after_crash ~burn () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ = ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()) in
  check_ok "flush" (Persist.Session.flush s);
  let before = Persist.Session.journal_records s in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  Alcotest.(check int) "one item record, no meta" 1
    (Persist.Session.journal_records s - before);
  if burn then begin
    check_err "rolled back"
      (function Seed_error.Invalid_operation "roll back" -> true | _ -> false)
      (DB.with_transaction db (fun () ->
           let _ = ok (DB.create_object db ~cls:"Data" ~name:"Burned" ()) in
           Seed_error.fail (Seed_error.Invalid_operation "roll back")));
    check_ok "flush3" (Persist.Session.flush s)
  end;
  let durable = item_ids db in
  (* crash: the session is dropped, never closed or compacted *)
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check (list int)) "every durable item back"
    (List.map Ident.to_int durable)
    (List.map Ident.to_int (item_ids db2));
  let c = ok (DB.create_object db2 ~cls:"Data" ~name:"C" ()) in
  Alcotest.(check bool) "fresh id unused" false (List.mem c durable);
  check_ok "flush after recovery" (Persist.Session.flush s2);
  Persist.Session.close s2;
  Persist.Session.close s;
  let s3 = ok (Persist.Session.open_ ~dir ()) in
  let db3 = Persist.Session.db s3 in
  Alcotest.(check (list (option int))) "each name keeps its own id"
    (List.map (fun id -> Some (Ident.to_int id)) [ a; c ])
    (List.map
       (fun n -> Option.map Ident.to_int (DB.find_object db3 n))
       [ "A"; "C" ]);
  Alcotest.(check int) "no id shared" (List.length durable + 1)
    (List.length (List.sort_uniq Ident.compare (item_ids db3)));
  Persist.Session.close s3

(* Each operation that replaces the meta — schema update, version
   create, select, branch switch, version delete — is flushed, and the
   journal alone (no compaction) reopens to the same schema list,
   version tree and current base. *)
let test_meta_operations_reopen () =
  let setup () =
    let dir = tmp_dir () in
    let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
    let db = Persist.Session.db s in
    let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
    let v1 = ok (DB.create_version db) in
    ok (DB.rename_object db a "A2");
    let v2 = ok (DB.create_version db) in
    ok (DB.begin_alternative db ~from_:v1 ());
    ok (DB.reclassify db a ~to_:"InputData");
    let _alt = ok (DB.create_version db) in
    check_ok "flush" (Persist.Session.flush s);
    (dir, s, db, v1, v2)
  in
  let evolve db =
    let classes, assocs = Spades_tool.Spec_model.schema_defs () in
    DB.update_schema db
      (Schema.of_defs_exn (classes @ [ Class_def.v ~super:"Thing" [ "Module" ] ]) assocs)
  in
  List.iter
    (fun (what, op) ->
      let dir, s, db, v1, v2 = setup () in
      let before = meta_of db in
      check_ok what (op db ~v1 ~v2);
      (* a selection is retrieval state, not meta *)
      Alcotest.(check bool) (what ^ " changes the meta") (what <> "select_version")
        (meta_of db <> before);
      check_ok (what ^ " flush") (Persist.Session.flush s);
      let s2 = ok (Persist.Session.open_ ~dir ()) in
      Alcotest.(check bool) (what ^ ": reopened meta = in memory") true
        (meta_of (Persist.Session.db s2) = meta_of db);
      Persist.Session.close s2;
      Persist.Session.close s)
    [
      ("update_schema", fun db ~v1:_ ~v2:_ -> evolve db);
      ("create_version", fun db ~v1:_ ~v2:_ -> Result.map ignore (DB.create_version db));
      ("select_version", fun db ~v1 ~v2:_ -> DB.select_version db (Some v1));
      ("begin_alternative", fun db ~v1:_ ~v2 -> DB.begin_alternative db ~from_:v2 ~force:true ());
      ("delete_version", fun db ~v1:_ ~v2 -> DB.delete_version db v2);
    ]

(* A version refused by a transition rule is rolled back whole — the
   version tree, the base and an item the rule created — so the next
   flush has nothing to write, not even a meta record. *)
let test_refused_version_writes_nothing () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ = ok (DB.create_version db) in
  check_ok "flush" (Persist.Session.flush s);
  let before = Persist.Session.journal_records s in
  DB.add_transition_rule db "log then refuse" (fun st ~base:_ ->
      let _ = ok (DB.create_object (DB.of_raw st) ~cls:"Data" ~name:"Log" ()) in
      Seed_error.fail (Seed_error.Invalid_operation "refused"));
  check_err "refused"
    (function Seed_error.Invalid_operation "refused" -> true | _ -> false)
    (DB.create_version db);
  check_ok "flush" (Persist.Session.flush s);
  Alcotest.(check int) "no record" before (Persist.Session.journal_records s);
  Persist.Session.close s

(* A flush of a new version that fails with ENOSPC keeps its meta
   record pending: the retry writes it. *)
let test_failed_flush_keeps_meta_pending () =
  let dir = tmp_dir () in
  (* write 0 is the fresh store's initial meta record, write 1 the flush *)
  let f = Seed_storage.Faulty_io.create ~enospc_write:1 () in
  let s =
    ok
      (Persist.Session.open_ ~dir ~schema:(fig3_schema ())
         ~io:(Seed_storage.Faulty_io.io f) ())
  in
  let db = Persist.Session.db s in
  let v = ok (DB.create_version db) in
  let before = Persist.Session.journal_records s in
  check_err "flush fails" (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.Session.flush s);
  check_ok "retry" (Persist.Session.flush s);
  Alcotest.(check int) "the meta record" 1 (Persist.Session.journal_records s - before);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check (option string)) "version durable" (Some (Version_id.to_string v))
    (Option.map Version_id.to_string (Seed_core.Db_state.current_base (DB.raw db2)));
  Alcotest.(check bool) "meta durable" true (meta_of db2 = meta_of db);
  Persist.Session.close s2

(* An empty flush costs O(1): it compares the meta by identity and
   encodes nothing, whatever the size of the schema and version tree.
   Encoding the SPADES schema and a few versions per flush allocated
   ~14 KiB; the bound is generous and measures words, not time. *)
let test_empty_flush_allocation () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  for i = 1 to 4 do
    let o = ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()) in
    let _ =
      ok (DB.create_sub_object db ~parent:o ~role:"Description" ~value:(Value.String "d") ())
    in
    ignore (ok (DB.create_version db))
  done;
  check_ok "flush" (Persist.Session.flush s);
  check_ok "warm-up" (Persist.Session.flush s);
  let before = Gc.minor_words () in
  let r = Persist.Session.flush s in
  let words = Gc.minor_words () -. before in
  check_ok "empty flush" r;
  if words >= 128. then
    Alcotest.failf "an empty flush allocated %.0f words (bound 128)" words;
  Persist.Session.close s

let test_session_compact () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  for i = 1 to 5 do
    ignore (ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()))
  done;
  check_ok "flush" (Persist.Session.flush s);
  check_ok "compact" (Persist.Session.compact s);
  Alcotest.(check int) "journal empty" 0 (Persist.Session.journal_records s);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  Alcotest.(check int) "snapshot has everything" 5
    (DB.object_count (Persist.Session.db s2));
  Persist.Session.close s2

let test_session_requires_schema_for_fresh_dir () =
  check_err "no schema"
    (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.Session.open_ ~dir:(tmp_dir ()) ())

let test_session_survives_torn_journal_tail () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  check_ok "flush" (Persist.Session.flush s);
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  (* tear the journal tail: B's records get cut *)
  let path = Filename.concat dir "journal.log" in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "A recovered" true (DB.find_object db2 "A" <> None);
  Persist.Session.close s2

(* Database.stats reads the store's group-commit counters: every flush
   with changes is one transaction through the commit daemon and, under
   [`Always_fsync], one fsync. An in-memory database has no write path
   to report. *)
let test_session_write_stats () =
  let dir = tmp_dir () in
  (* create, then reopen: a fresh store's initial metadata record would
     count as one more transaction *)
  Persist.Session.close
    (ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()));
  let s = ok (Persist.Session.open_ ~dir ~sync:`Always_fsync ()) in
  let db = Persist.Session.db s in
  let n = 5 in
  for i = 1 to n do
    let _ =
      ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ())
    in
    check_ok "flush" (Persist.Session.flush s)
  done;
  let st = DB.stats db in
  Alcotest.(check bool) "durable" true st.DB.st_durable;
  Alcotest.(check int) "txns submitted" n st.DB.st_txns_submitted;
  Alcotest.(check int) "fsyncs" n st.DB.st_txn_fsyncs;
  Alcotest.(check bool) "pp_stats prints the write path" true
    (contains (Fmt.str "%a" DB.pp_stats st) "txns committed: 5 in 5 writes / 5 fsyncs");
  Persist.Session.close s;
  let st = DB.stats (fresh_db ()) in
  Alcotest.(check bool) "in-memory is not durable" false st.DB.st_durable;
  Alcotest.(check bool) "pp_stats leaves the write path out" false
    (contains (Fmt.str "%a" DB.pp_stats st) "txns committed")

let test_versions_survive_roundtrip () =
  let dir = tmp_dir () in
  let db, _, v1 = populated () in
  (* branch before saving *)
  ok (DB.begin_alternative db ~from_:v1 ~force:true ());
  let alarms = Option.get (DB.find_object db "Alarms") in
  ok (DB.reclassify db alarms ~to_:"InputData");
  let alt = ok (DB.create_version db) in
  check_ok "save" (Persist.save db ~dir);
  let db2 = ok (Persist.load ~dir ()) in
  Alcotest.(check string) "branch label kept" "1.1" (Version_id.to_string alt);
  ok (DB.select_version db2 (Some alt));
  let a2 = Option.get (DB.find_object db2 "Alarms") in
  Alcotest.(check (option string)) "branch content" (Some "InputData")
    (DB.class_of db2 a2);
  ok (DB.select_version db2 None);
  (* new versions continue the numbering after reload *)
  ok (DB.reclassify db2 a2 ~to_:"Data");
  let next = ok (DB.create_version db2) in
  Alcotest.(check string) "numbering continues" "1.1.1" (Version_id.to_string next)

let test_history_survives_roundtrip () =
  let db, alarms, _ = populated () in
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  let h1 = List.length (History.stamps_of db alarms) in
  let h2 = List.length (History.stamps_of db2 alarms) in
  Alcotest.(check int) "stamps preserved" h1 h2

let test_decode_rejects_garbage () =
  check_err "garbage" (function Seed_error.Corrupt _ -> true | _ -> false)
    (Persist.decode_db "not a database");
  check_err "empty" (function Seed_error.Corrupt _ -> true | _ -> false)
    (Persist.decode_db "")

(* A snapshot whose version 1.0 names itself as its parent is damage:
   decoding returns [Corrupt] rather than following the cycle. The
   payload is a real one with the node's parent field rewritten. *)
let test_decode_rejects_version_cycle () =
  let db = fresh_db () in
  let v1 = ok (DB.create_version db) in
  let node parent =
    let module W = Seed_storage.Codec.Writer in
    let w = W.create () in
    let vid w v = W.list w W.varint (v : Version_id.t :> int list) in
    vid w v1;
    W.option w vid parent;
    W.varint w 1;
    W.varint w (Schema.revision (DB.schema db));
    W.varint w 1;
    W.contents w
  in
  let payload = Persist.encode_db db and good = node None in
  let at = ref [] in
  String.iteri
    (fun i _ ->
      if i + String.length good <= String.length payload
         && String.sub payload i (String.length good) = good
      then at := i :: !at)
    payload;
  let i = match !at with [ i ] -> i | _ -> Alcotest.fail "node bytes not unique" in
  let cyclic =
    String.sub payload 0 i ^ node (Some v1)
    ^ String.sub payload (i + String.length good) (String.length payload - i - String.length good)
  in
  check_ok "the payload decodes" (Result.map ignore (Persist.decode_db payload));
  check_err "self-parented version" (function Seed_error.Corrupt _ -> true | _ -> false)
    (Persist.decode_db cyclic)

let uvarint n =
  let module W = Seed_storage.Codec.Writer in
  let w = W.create () in
  W.uvarint w n;
  W.contents w

(* the last place [part] occurs in [payload] *)
let find_last payload part =
  let n = String.length part in
  let rec last i =
    if i < 0 then Alcotest.failf "%S not found" part
    else if String.sub payload i n = part then i
    else last (i - 1)
  in
  last (String.length payload - n)

(* [payload] comes back [Corrupt], without allocating by a decoded
   number: under 1 MB. The span starts and ends with a minor
   collection: an automatic one falling inside it makes the minor words
   read high by up to the minor heap's size. *)
let refused what payload =
  let bytes () =
    Gc.minor ();
    Gc.allocated_bytes ()
  in
  let before = bytes () in
  check_err what (function Seed_error.Corrupt _ -> true | _ -> false) (Persist.decode_db payload);
  Alcotest.(check bool)
    (what ^ ": nothing allocated by a decoded number") true
    (bytes () -. before < 1e6)

(* A snapshot's item ids ascend from 1 and stay within its meta's id
   counter: each is a gap from the id before, so a gap of 0 (a repeated
   id), a negative one, one past the counter and one that would
   overflow near [max_int] are damage, each [Corrupt]. The payloads
   are a real one-object snapshot (A is #1, the last record) with its
   gap rewritten, or its record listed twice. *)
let test_decode_rejects_bad_ids () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  Alcotest.(check int) "A is #1" 1 (Ident.to_int a);
  let payload = Persist.encode_db db in
  (* the item count (1) and A's record: its id's gap from 0 (1), its
     flag word (a dirty named object, 0x44) and its name *)
  let at = find_last payload "\001\001\068\001A" in
  let head = String.sub payload 0 at in
  let record = String.sub payload (at + 2) (String.length payload - at - 2) in
  let with_gaps gaps =
    head ^ uvarint (List.length gaps) ^ String.concat "" (List.map (fun g -> uvarint g ^ record) gaps)
  in
  check_ok "the unchanged payload decodes" (Result.map ignore (Persist.decode_db (with_gaps [ 1 ])));
  refused "id gap 0" (with_gaps [ 0 ]);
  refused "negative gap" (with_gaps [ -7 ]);
  refused "gap min_int" (with_gaps [ min_int ]);
  refused "id past the counter" (with_gaps [ 2 ]);
  refused "gap near max_int" (with_gaps [ max_int - 1 ]);
  refused "gap max_int" (with_gaps [ max_int ]);
  refused "repeated id" (with_gaps [ 1; 0 ]);
  refused "a second gap overflowing" (with_gaps [ 1; max_int ])

(* Format 3's other numbers and flags, on a real snapshot of A (#1) and
   its Description (#2): a parent gap of 0 (the sub-object its own
   parent) or reaching below #1, a reserved flag bit, a flag word with
   its top bit set, the fourth body kind, the eighth value kind, and
   bits its kind of item may not set are each [Corrupt]. *)
let test_decode_rejects_bad_flags () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let d = ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()) in
  Alcotest.(check (list int)) "A is #1, its Description #2" [ 1; 2 ] (List.map Ident.to_int [ a; d ]);
  let payload = Persist.encode_db db in
  (* the count (2), A's record (gap, flags, name, class number), then
     the Description's: gap 1, flags 0x0D (a dirty sub-object holding a
     string), parent gap 1, then role, class and value *)
  let at = find_last payload "\002\001\068\001A" in
  let head = String.sub payload 0 (at + 1) in
  let a_rest = String.sub payload (at + 3) 3 in
  let d_rec = String.sub payload (at + 6) (String.length payload - at - 6) in
  Alcotest.(check string) "the Description's gap, flags and parent gap" "\001\013\001"
    (String.sub d_rec 0 3);
  let d_tail = String.sub d_rec 3 (String.length d_rec - 3) in
  let build ?(a_flags = 0x44) ?(d_flags = 0x0D) ?(parent_gap = 1) () =
    head ^ "\001" ^ uvarint a_flags ^ a_rest ^ "\001" ^ uvarint d_flags ^ uvarint parent_gap ^ d_tail
  in
  Alcotest.(check string) "rebuilt as written" payload (build ());
  check_ok "the payload decodes" (Result.map ignore (Persist.decode_db payload));
  refused "parent gap 0" (build ~parent_gap:0 ());
  refused "parent gap reaching #0" (build ~parent_gap:2 ());
  refused "parent gap reaching below #0" (build ~parent_gap:3 ());
  refused "parent gap with its top bit" (build ~parent_gap:min_int ());
  refused "a reserved flag bit" (build ~d_flags:(0x0D lor 0x4000) ());
  refused "a high reserved flag bit" (build ~a_flags:(0x44 lor (1 lsl 40)) ());
  refused "a flag word with its top bit" (build ~a_flags:(0x44 lor min_int) ());
  refused "the fourth body kind" (build ~d_flags:(0x0D lor 0x3) ());
  refused "the eighth value kind" (build ~d_flags:(0x0D lor 0x38) ());
  refused "relationship attributes on a sub-object" (build ~d_flags:(0x0D lor 0x800) ());
  refused "a sub-object's name bit on an object" (build ~a_flags:(0x44 lor 0x2000) ());
  refused "state bits on an absent state" (build ~a_flags:(0x44 lor 0x80) ());
  refused "a history flagged with no stamp" (build ~a_flags:(0x44 lor 0x1000) ())

(* The decoders' only exception boundary is [Codec.Reader.run]: every
   truncated prefix and every single-byte flip of a valid payload must
   come back as a value, never as an exception. A cut payload is always
   [Corrupt]; a flipped one may still decode, or fail verification. *)
let mangled payload =
  let n = String.length payload in
  let flips =
    List.concat_map
      (fun mask ->
        List.init n (fun i ->
            let b = Bytes.of_string payload in
            Bytes.set b i (Char.chr (Char.code payload.[i] lxor mask));
            Bytes.to_string b))
      [ 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0xFF ]
  in
  (List.init n (String.sub payload 0), flips)

let never_raises what decode payload =
  let cuts, flips = mangled payload in
  let run p =
    match decode p with
    | r -> r
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun p ->
      check_err (what ^ " truncated")
        (function Seed_error.Corrupt _ -> true | _ -> false)
        (run p))
    cuts;
  List.iter (fun p -> ignore (run p)) flips

(* A session's store whose items, between them, set every bit of the
   format-3 flag word: each body kind, dirty and clean items, string,
   date and enum values, a name and an index, an absent current state,
   a pattern and its inheritor, deleted items, relationship attributes,
   histories, and a sub-object's name (set on the raw root: no update
   gives one). Every item is in some tag-3 record of the journal, over
   an empty snapshot. Returns the database, the snapshot payload and
   the journal's records. *)
let every_flag_store () =
  let module Item = Seed_core.Item in
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  check_ok "compact" (Persist.Session.compact s);
  let db = Persist.Session.db s in
  let sub parent role value = ok (DB.create_sub_object db ~parent ~role ~value ()) in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let d = sub a "Description" (Value.String "d") in
  let _ = sub a "Keywords" (Value.String "kw") in
  let _ = sub a "Revised" (Value.Date { Value.year = 1986; month = 2; day = 5 }) in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  let _ = sub h "ErrorHandling" (Value.Enum "abort") in
  let o = ok (DB.create_object db ~cls:"OutputData" ~name:"O" ()) in
  let w = ok (DB.create_relationship db ~assoc:"Write" ~endpoints:[ o; h ] ()) in
  ok (DB.set_rel_attr db w "NumberOfWrites" (Some (Value.Int 3)));
  let p = ok (DB.create_object db ~cls:"Data" ~name:"P" ~pattern:true ()) in
  let b = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:b);
  check_ok "flush" (Persist.Session.flush s);
  let v1 = ok (DB.create_version db) in
  (* created after 1.0, then absent from its alternative *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Late" ()) in
  check_ok "set" (DB.set_value db d (Some (Value.String "d2")));
  let _ = ok (DB.create_version db) in
  ok (DB.begin_alternative db ~from_:v1 ~force:true ());
  check_ok "delete" (DB.delete db o);
  let st = DB.raw db in
  (match (Option.get (Seed_core.Db_state.find_item st d)).Item.current with
  | Item.Obj o -> Seed_core.Db_state.replace_state st d (Item.Obj { o with name = Some "n" })
  | Item.Rel _ | Item.Absent -> Alcotest.fail "the Description is an object");
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  let store, snapshot, records, _ = ok (Seed_storage.Store.open_dir dir) in
  Seed_storage.Store.close store;
  (db, payload_string (Option.get snapshot), records)

(* a tag-3 record's flag word, after its tag and id *)
let record_flags record =
  let rec uvarint i shift acc =
    let c = Char.code record.[i] in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then (acc, i + 1) else uvarint (i + 1) (shift + 7) acc
  in
  let _, after_id = uvarint 1 0 0 in
  fst (uvarint after_id 0 0)

(* what decodes must also be usable: every item's name resolves *)
let names db2 =
  let v = Seed_core.View.current (DB.raw db2) in
  Seed_core.Db_state.iter_items (DB.raw db2) (fun it -> ignore (Seed_core.View.full_name v it))

(* [records] with its [i]th record replaced by [p] *)
let replace_nth i p records = List.mapi (fun j r -> if i = j then p else r) records

let test_decoders_never_raise () =
  let db, snapshot, records = every_flag_store () in
  let items = List.filter (fun r -> r.[0] = '\003') records in
  Alcotest.(check int) "every flag bit set by some record" 0x3fff
    (List.fold_left (fun acc r -> acc lor record_flags r) 0 items);
  let encoded = Persist.encode_db db in
  check_ok "the journal reopens equal to memory"
    (Result.map
       (fun db2 -> if not (String.equal encoded (Persist.encode_db db2)) then Alcotest.fail "differs")
       (Persist.decode_db ~records snapshot));
  never_raises "snapshot" (fun p -> Result.map names (Persist.decode_db p)) encoded;
  List.iteri
    (fun i record ->
      if record.[0] = '\003' then
        never_raises "tag-3 record"
          (fun p ->
            Result.map names
              (Persist.decode_db ~records:(replace_nth i p records) snapshot))
          record)
    records;
  let module W = Seed_net.Wire in
  never_raises "request"
    (fun p -> Result.map ignore (W.decode_request p))
    (W.encode_request
       {
         W.req_id = 7L;
         body =
           W.Checkin
             [
               Seed_server.Protocol.Create_sub
                 { owner = "A"; role = "Description"; index = Some 2; value = Some (Value.Int 3) };
             ];
       });
  never_raises "response"
    (fun p -> Result.map ignore (W.decode_response p))
    (W.encode_response
       { W.rsp_id = 7L; rbody = W.Err { code = W.Locked; message = "held"; retryable = true } });
  let frame =
    let w = Seed_storage.Codec.Writer.create () in
    Seed_storage.Codec.Writer.list w Seed_storage.Codec.Writer.string [ "one"; "two" ];
    Seed_storage.Codec.Writer.contents w
  in
  never_raises "journal records"
    (fun p ->
      match Seed_storage.Journal.decode_records p with
      | Some _ -> Ok ()
      | None -> Error (Seed_error.Corrupt "records"))
    frame

(* Reopen rebuilds the root in one fold over the snapshot with the
   journal's records substituted. Its tail here rewrites snapshot items,
   adds items above the snapshot's ids and carries a relationship that
   exists only in history; the reopened root must answer exactly like
   the incrementally maintained one. *)
(* [compaction]: the store is compacted after the first version (a
   snapshot under a journal), never (the journal alone), or after the
   last flush (the snapshot alone). *)
let test_reopen_equals_memory ~compaction () =
  let module Q = Seed_core.Query in
  let module View = Seed_core.View in
  let module Db_state = Seed_core.Db_state in
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"Handler" ()) in
  let d =
    ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "raises alarms") ())
  in
  let v1 = ok (DB.create_version db) in
  if compaction = `Midway then check_ok "compact" (Persist.Session.compact s);
  let flush () = check_ok "flush" (Persist.Session.flush s) in
  (* rewrites of snapshot items *)
  check_ok "set" (DB.set_value db d (Some (Value.String "clears alarms")));
  ok (DB.reclassify db a ~to_:"OutputData");
  flush ();
  (* items above the snapshot's ids, then a relationship that a switch
     back to 1.0 leaves with no current state *)
  let b = ok (DB.create_object db ~cls:"Data" ~name:"Beacons" ()) in
  ignore (ok (DB.create_sub_object db ~parent:b ~role:"Keywords" ~value:(Value.String "beacon") ()));
  let r = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ b; h ] ()) in
  flush ();
  ignore (ok (DB.create_version db));
  (* back to its 1.0 value, unsaved: the switch to 1.0 keeps the record
     and only drops it from the delta set, which the journal must hear *)
  check_ok "set back" (DB.set_value db d (Some (Value.String "raises alarms")));
  flush ();
  ok (DB.begin_alternative db ~from_:v1 ~force:true ());
  ignore (ok (DB.create_object db ~cls:"Action" ~name:"Late" ()));
  flush ();
  if compaction = `At_end then check_ok "compact" (Persist.Session.compact s);
  let r_item = Option.get (Db_state.find_item (DB.raw db) r) in
  Alcotest.(check bool) "history-only relationship" true (r_item.Seed_core.Item.current = Seed_core.Item.Absent);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "encode_db byte-equal" true
    (String.equal (Persist.encode_db db) (Persist.encode_db db2));
  let v = DB.view db and v2 = DB.view db2 in
  List.iter
    (fun n ->
      Alcotest.(check (option int)) ("find " ^ n)
        (Option.map Ident.to_int (DB.find_object db n))
        (Option.map Ident.to_int (DB.find_object db2 n)))
    [ "Alarms"; "Handler"; "Beacons"; "Late"; "Nobody" ];
  List.iter
    (fun p ->
      Alcotest.(check (array string)) "select" (Q.select_names v p) (Q.select_names v2 p))
    [ Q.is_a "Thing"; Q.is_a "Data"; Q.in_class "Action"; Q.contains "" "alarm"; Q.contains "" "beacon" ];
  let ids st = Db_state.fold_items st ~init:[] ~f:(fun acc (it : Seed_core.Item.t) -> it.id :: acc) in
  let st = DB.raw db and st2 = DB.raw db2 in
  Alcotest.(check (list int)) "item table" (List.map Ident.to_int (ids st))
    (List.map Ident.to_int (ids st2));
  List.iter
    (fun id ->
      let same what f =
        Alcotest.(check (list int)) what
          (List.map Ident.to_int (Ident.Set.elements (f st id)))
          (List.map Ident.to_int (Ident.Set.elements (f st2 id)))
      in
      let of_ext f st id = f (Db_state.extents st) id in
      same "children" (of_ext Db_state.children_of);
      same "rels of" (of_ext Db_state.rels_of);
      same "inheritors" (of_ext Db_state.inheritors_of))
    (ids st @ [ Ident.of_int 9_999 ]);
  let delta st = List.map Ident.to_int (Ident.Set.elements (Db_state.dirty st)) in
  let reopened = delta st2 in
  Alcotest.(check (list int)) "dirty ids" (delta st) reopened;
  Alcotest.(check bool) "dirty and clean items" true
    (reopened <> [] && List.length reopened < Db_state.item_count st2);
  let content (x : DB.stats) =
    ( (x.st_objects, x.st_sub_objects, x.st_relationships, x.st_patterns),
      (x.st_versions, x.st_items_total, x.st_dirty, x.st_schema_revision),
      (x.st_text_enabled, x.st_text_docs) )
  in
  Alcotest.(check bool) "stats" true (content (DB.stats db) = content (DB.stats db2));
  (* the next version stamps exactly the reopened delta *)
  let vid = ok (DB.create_version db2) in
  let stamped =
    Db_state.fold_items st2 ~init:[] ~f:(fun acc (it : Seed_core.Item.t) ->
        if Seed_core.Item.stamp_at it vid <> Seed_core.Item.Absent then Ident.to_int it.id :: acc else acc)
  in
  Alcotest.(check (list int)) "next version stamps the delta" reopened (List.rev stamped);
  Persist.Session.close s2

let test_schema_revisions_roundtrip () =
  let db = fresh_db () in
  let classes, assocs = Spades_tool.Spec_model.schema_defs () in
  let classes' = classes @ [ Class_def.v ~super:"Thing" [ "Module" ] ] in
  check_ok "evolve" (DB.update_schema db (Schema.of_defs_exn classes' assocs));
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  Alcotest.(check int) "revision" (Schema.revision (DB.schema db))
    (Schema.revision (DB.schema db2));
  Alcotest.(check bool) "module class there" true
    (Schema.find_class (DB.schema db2) "Module" <> None);
  (* both revisions retrievable *)
  Alcotest.(check bool) "old revision kept" true
    (Seed_core.Db_state.schema_at_revision (DB.raw db2) 1 <> None)

(* Stores written by earlier releases, committed with the export, stats
   and fsck report of the binary that wrote each: a snapshot and a
   journal holding dirty and clean items, four versions with a branch,
   and a schema update in the journal. [v1_store] spells names out
   (snapshot format 1, tag-1 records); [v2_store] numbers them (format
   2, tag-2 records) and adds a pattern with an inheritor, deleted
   items, a second indexed sub-object and a deletion in the journal.
   See each fixture's README.md. They are found from the test binary,
   not the working directory: beside it once [dune runtest] has copied
   them there, else in the source tree it was built from
   ([_build/default/test]). *)
let fixtures =
  let here = Filename.dirname Sys.executable_name in
  List.find Sys.file_exists
    [ Filename.concat here "fixtures"; List.fold_left Filename.concat here [ ".."; ".."; ".."; "test"; "fixtures" ] ]
let read_file path = In_channel.with_open_bin path In_channel.input_all

let copy_fixture fixture =
  let src = Filename.concat fixture "db" and dir = tmp_dir () in
  Unix.mkdir dir 0o755;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src);
  dir

(* the snapshot's format version and the tag of each journal record *)
let stored_format dir =
  let module R = Seed_storage.Codec.Reader in
  let store, snapshot, records, _ = ok (Seed_storage.Store.open_dir dir) in
  Seed_storage.Store.close store;
  let version =
    Option.map
      (fun (p : Seed_storage.Snapshot_file.payload) ->
        ok (R.run (String.sub p.file p.pos 1) R.varint))
      snapshot
  in
  (version, List.map (fun r -> Char.code r.[0]) records)

(* The fixture of snapshot format [format] (its item records carry tag
   [format]) prints what its release printed, takes tag-3 appends,
   reopens equal to memory, and compacts to format 3. *)
let test_fixture ~format () =
  let fixture = Filename.concat fixtures (Printf.sprintf "v%d_store" format) in
  let expected f = read_file (Filename.concat fixture f) in
  let dir = copy_fixture fixture in
  let version, tags = stored_format dir in
  Alcotest.(check (option int)) "the fixture's snapshot format" (Some format) version;
  Alcotest.(check (list int)) "the fixture's record tags" [ 0; format ] (List.sort_uniq Int.compare tags);
  let report = ok (Seed_storage.Store.fsck dir) in
  Alcotest.(check bool) "fsck healthy" true report.Seed_storage.Store.fsck_healthy;
  Alcotest.(check string) "fsck report" (expected "fsck.txt")
    (Fmt.str "%a" Seed_storage.Store.pp_fsck_report report);
  let export db = Seed_core.Data_text.export_view (DB.view db) in
  let s = ok (Persist.Session.open_ ~dir ()) in
  let db = Persist.Session.db s in
  Alcotest.(check string) "export" (expected "export.txt") (export db);
  Alcotest.(check string) "stats" (expected "stats.txt")
    (Fmt.str "%a@." DB.pp_stats (DB.stats db));
  (* the new binary appends tag-3 records to the old journal *)
  let kernel = Option.get (DB.find_object db "Kernel") in
  let _ =
    ok (DB.create_sub_object db ~parent:kernel ~role:"Description" ~value:(Value.String "core") ())
  in
  let m = ok (DB.create_object db ~cls:"Module" ~name:"Driver" ()) in
  let _ = ok (DB.create_sub_object db ~parent:m ~role:"Owner" ~value:(Value.String "hw") ()) in
  let log = Option.get (DB.find_object db "Log")
  and main = Option.get (DB.find_object db "Main") in
  let w = ok (DB.create_relationship db ~assoc:"Write" ~endpoints:[ log; main ] ()) in
  ok (DB.set_rel_attr db w "NumberOfWrites" (Some (Value.Int 1)));
  ok (DB.reclassify db (Option.get (DB.find_object db "Draft")) ~to_:"InputData");
  check_ok "flush" (Persist.Session.flush s);
  let _ = ok (DB.create_version db) in
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  let version, tags' = stored_format dir in
  Alcotest.(check (option int)) "snapshot untouched" (Some format) version;
  let appended = List.filteri (fun i _ -> i >= List.length tags) tags' in
  Alcotest.(check bool) "tag-3 item records appended" true
    (List.mem 3 appended && List.for_all (fun t -> t = 0 || t = 3) appended);
  let reopened () =
    let s2 = ok (Persist.Session.open_ ~dir ()) in
    let db2 = Persist.Session.db s2 in
    Alcotest.(check bool) "encode_db byte-equal" true
      (String.equal (Persist.encode_db db) (Persist.encode_db db2));
    Alcotest.(check string) "export equal" (export db) (export db2);
    Alcotest.(check bool) "meta equal" true (meta_of db = meta_of db2);
    s2
  in
  let s2 = reopened () in
  check_ok "compact" (Persist.Session.compact s2);
  Persist.Session.close s2;
  Alcotest.(check bool) "compaction writes format 3" true
    (stored_format dir = (Some 3, []));
  let s3 = reopened () in
  Persist.Session.close s3

(* the snapshot payload and the journal records of the fixture of
   format [format], read from a copy *)
let fixture_parts format =
  let dir = copy_fixture (Filename.concat fixtures (Printf.sprintf "v%d_store" format)) in
  let store, snapshot, records, _ = ok (Seed_storage.Store.open_dir dir) in
  Seed_storage.Store.close store;
  (payload_string (Option.get snapshot), records)

let varint n =
  let module W = Seed_storage.Codec.Writer in
  let w = W.create () in
  W.varint w n;
  W.contents w

(* [s] with its byte at [i] replaced by [c] *)
let with_byte s i c = String.mapi (fun j x -> if i = j then c else x) s

(* The older formats' decoders are swept as format 3's are: every cut
   and flip of [v1_store]'s and [v2_store]'s snapshot, and of each item
   record (tag 1 or 2) of their journals decoded over that snapshot,
   comes back as a value. *)
let test_old_never_raise () =
  List.iter
    (fun format ->
      let snapshot, records = fixture_parts format in
      check_ok "the fixture decodes" (Result.map names (Persist.decode_db ~records snapshot));
      never_raises
        (Printf.sprintf "format-%d snapshot" format)
        (fun p -> Result.map names (Persist.decode_db p))
        snapshot;
      List.iteri
        (fun i record ->
          if Char.code record.[0] = format then
            never_raises
              (Printf.sprintf "tag-%d record" format)
              (fun p -> Result.map names (Persist.decode_db ~records:(replace_nth i p records) snapshot))
              record)
        records)
    [ 1; 2 ]

(* An older snapshot's item ids ascend from 1 and stay within its
   meta's id counter, as format 3's do: [v2_store]'s snapshot with the
   id of its last item (#18, Alarms' (#1) second keyword) rewritten to
   0, a negative id, [min_int], one past the counter, [max_int] or the
   id before it is [Corrupt], and allocates nothing by the id. *)
let test_old_snapshot_ids () =
  let payload, _ = fixture_parts 2 in
  let at = find_last payload (varint 18 ^ "\001" ^ varint 1) in
  let head = String.sub payload 0 at in
  let rest = String.sub payload (at + 1) (String.length payload - at - 1) in
  let with_id n = head ^ varint n ^ rest in
  Alcotest.(check string) "rebuilt as written" payload (with_id 18);
  check_ok "the snapshot decodes" (Result.map ignore (Persist.decode_db payload));
  refused "id 0" (with_id 0);
  refused "negative id" (with_id (-7));
  refused "id min_int" (with_id min_int);
  refused "id past the counter" (with_id 19);
  refused "id near max_int" (with_id (max_int - 1));
  refused "id max_int" (with_id max_int);
  refused "the id before it repeated" (with_id 17)

(* An older record pairs any body with any state tag, and holds its
   references as absolute ids; the decoder takes what format 3 can
   write: a relationship's state only on a relationship and an object's
   only on an object or a sub-object, in the current state and in every
   stamp, and a reference to #1 or above. In [v2_store], a journal
   record of an object (Kernel, #19) or a relationship (Contained, #23),
   and the snapshot record of Beacons (#12: no current state, one
   stamp), with the body byte after the id changed, are each [Corrupt];
   so are Kernel's Owner (#20) with its parent, and Contained with its
   first endpoint, rewritten to 0. *)
let test_old_state_kind () =
  let snapshot, records = fixture_parts 2 in
  let corrupt what r = check_err what (function Seed_error.Corrupt _ -> true | _ -> false) r in
  let last_record prefix =
    let i =
      List.length records - 1
      - Option.get
          (List.find_index (fun r -> String.starts_with ~prefix r) (List.rev records))
    in
    (i, List.nth records i)
  in
  check_ok "the journal decodes" (Result.map ignore (Persist.decode_db ~records snapshot));
  let kernel, r = last_record ("\002" ^ varint 19 ^ "\000\001\000") in
  corrupt "an object's state on a relationship"
    (Persist.decode_db ~records:(replace_nth kernel (with_byte r 2 '\002') records) snapshot);
  let contained, r = last_record ("\002" ^ varint 23 ^ "\002\001\001") in
  corrupt "a relationship's state on an object"
    (Persist.decode_db ~records:(replace_nth contained (with_byte r 2 '\000') records) snapshot);
  (* after the body, the option, the state tag, the association and the
     endpoint count *)
  corrupt "an endpoint #0"
    (Persist.decode_db ~records:(replace_nth contained (with_byte r 7 '\000') records) snapshot);
  let owner, r = last_record ("\002" ^ varint 20 ^ "\001" ^ varint 19) in
  corrupt "a parent #0"
    (Persist.decode_db ~records:(replace_nth owner (with_byte r 3 '\000') records) snapshot);
  let beacons = find_last snapshot (varint 12 ^ "\000\000") in
  check_ok "the snapshot decodes" (Result.map ignore (Persist.decode_db snapshot));
  corrupt "an object's stamp on a relationship"
    (Persist.decode_db (with_byte snapshot (beacons + 1) '\002'))

(* The older item records hold absolute ids, checked like a format-3
   record's: a tag-2 record of [v2_store]'s journal with its id
   rewritten to 0, -1 or [max_int] ([Item.none]'s) is [Corrupt]. *)
let test_old_record_ids () =
  let snapshot, records = fixture_parts 2 in
  check_ok "the journal decodes" (Result.map ignore (Persist.decode_db ~records snapshot));
  (* the last tag-2 record: its tag, its id as a one-byte varint, the rest *)
  let i = List.length records - 1 - Option.get (List.find_index (fun r -> r.[0] = '\002') (List.rev records)) in
  let record = List.nth records i in
  Alcotest.(check bool) "a one-byte id" true (Char.code record.[1] < 0x80);
  let with_id n =
    replace_nth i ("\002" ^ varint n ^ String.sub record 2 (String.length record - 2)) records
  in
  List.iter
    (fun n ->
      check_err (Printf.sprintf "id %d" n)
        (function Seed_error.Corrupt _ -> true | _ -> false)
        (Persist.decode_db ~records:(with_id n) snapshot))
    [ 0; -1; max_int ]

(* One flush holds a schema update that adds a class and a create of
   that class: its item records number the class in the table the
   frame's own meta record extends, so the meta goes first. A crash at
   every gated step of that flush recovers the state before it or the
   state after it. *)
let test_schema_update_frame_crash_sweep () =
  let module Faulty = Seed_storage.Faulty_io in
  (* the states before and after the flush under test, and the gated
     step it starts at *)
  let before = ref "" and after = ref "" and first = ref 0 in
  let run f dir =
    let s =
      ok
        (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ~io:(Faulty.io f)
           ~sync:`Always_fsync ())
    in
    let db = Persist.Session.db s in
    let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
    let _ = ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()) in
    check_ok "flush" (Persist.Session.flush s);
    before := Persist.encode_db db;
    first := Faulty.steps f;
    let classes, assocs = Spades_tool.Spec_model.schema_defs () in
    check_ok "evolve"
      (DB.update_schema db
         (Schema.of_defs_exn
            (classes
            @ [
                Class_def.v ~super:"Thing" [ "Module" ];
                Class_def.v ~card:(Cardinality.between 0 1) ~content:Value_type.String
                  [ "Module"; "Owner" ];
              ])
            assocs));
    let m = ok (DB.create_object db ~cls:"Module" ~name:"Kernel" ()) in
    let _ = ok (DB.create_sub_object db ~parent:m ~role:"Owner" ~value:(Value.String "ops") ()) in
    check_ok "the flush under test" (Persist.Session.flush s);
    after := Persist.encode_db db;
    Persist.Session.close s
  in
  let recovered dir =
    let s = ok (Persist.Session.open_ ~dir ()) in
    let p = Persist.encode_db (Persist.Session.db s) in
    Persist.Session.close s;
    p
  in
  let probe = Faulty.create () in
  let dir = tmp_dir () in
  run probe dir;
  Alcotest.(check bool) "the flush reopens" true (String.equal !after (recovered dir));
  let total = Faulty.steps probe in
  Alcotest.(check bool) "the flush has gated steps" true (total > !first);
  let pre = !before and post = !after in
  for n = !first to total - 1 do
    let dir = tmp_dir () in
    let f = Faulty.create ~crash_at:n ~torn:(n mod 2 = 0) () in
    (try
       run f dir;
       Alcotest.failf "crash point %d did not fire" n
     with Faulty.Crash _ -> ());
    let got = recovered dir in
    if not (String.equal got pre || String.equal got post) then
      Alcotest.failf "crash %d: recovered neither the state before the flush nor after it" n
  done

(* The journal's bytes for a fixed sequence of writes, pinned by digest:
   a fresh session's meta record, creates, value updates, a relationship,
   a version (a meta change), and then multi-record transactions through
   the store, four of them appended from four threads at once so the
   group-commit leader may land them as one batch. The four are equal
   and a frame in a batch is the same bytes as one written alone, so the
   file is the same whatever the threads' interleaving. *)
let journal_digest = "c10b55f43a0e96e7d18a1e18dae12adf"

let test_journal_bytes_pinned () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"Handler" ()) in
  let d =
    ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "alarms") ())
  in
  check_ok "flush creates" (Persist.Session.flush s);
  check_ok "set" (DB.set_value db d (Some (Value.String "alarm data, revised")));
  let _ = ok (DB.create_sub_object db ~parent:a ~role:"Keywords" ~value:(Value.String "kw") ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ a; h ] ()) in
  check_ok "flush updates" (Persist.Session.flush s);
  let _ = ok (DB.create_version db) in
  check_ok "set after the version" (DB.set_value db d (Some (Value.String "v2")));
  check_ok "flush the meta" (Persist.Session.flush s);
  Persist.Session.close s;
  let store, _, _, _ = ok (Seed_storage.Store.open_dir dir) in
  check_ok "one transaction" (Seed_storage.Store.append store [ "first"; "second" ]);
  let append () = check_ok "batched" (Seed_storage.Store.append store [ "x"; "yy"; "zzz" ]) in
  List.iter Thread.join (List.init 4 (fun _ -> Thread.create append ()));
  Seed_storage.Store.close store;
  let bytes = In_channel.with_open_bin (Filename.concat dir "journal.log") In_channel.input_all in
  Alcotest.(check string) "journal digest" journal_digest (Digest.to_hex (Digest.string bytes))

let () =
  Alcotest.run "persist"
    [
      ( "roundtrip",
        [
          tc "encode/decode" test_encode_decode_roundtrip;
          tc "save/load" test_save_load;
          tc "missing" test_load_missing;
          tc "versions & branches" test_versions_survive_roundtrip;
          tc "history stamps" test_history_survives_roundtrip;
          tc "schema revisions" test_schema_revisions_roundtrip;
          tc "garbage rejected" test_decode_rejects_garbage;
          tc "version cycle rejected" test_decode_rejects_version_cycle;
          tc "bad item ids rejected" test_decode_rejects_bad_ids;
          tc "bad format-3 flags and gaps rejected" test_decode_rejects_bad_flags;
          tc "decoders never raise" test_decoders_never_raise;
          tc "reopen equals memory over a journal" (test_reopen_equals_memory ~compaction:`Midway);
          tc "reopen equals memory, journal alone" (test_reopen_equals_memory ~compaction:`Never);
          tc "reopen equals memory after compaction" (test_reopen_equals_memory ~compaction:`At_end);
        ] );
      ( "session",
        [
          tc "flush and reopen" test_session_flush_and_reopen;
          tc "incremental flush" test_session_flush_writes_only_changes;
          tc "flush refused in a transaction" test_session_flush_refused_in_transaction;
          tc "flush after branch switch" test_session_flush_after_branch_switch;
          tc "compaction" test_session_compact;
          tc "fresh dir needs schema" test_session_requires_schema_for_fresh_dir;
          tc "torn tail recovery" test_session_survives_torn_journal_tail;
          tc "write stats through Database.stats" test_session_write_stats;
        ] );
      ( "format",
        [
          tc "a format-1 store opens, takes appends, compacts to 3" (test_fixture ~format:1);
          tc "a format-2 store opens, takes appends, compacts to 3" (test_fixture ~format:2);
          tc "older record ids out of range rejected" test_old_record_ids;
          tc "older snapshot item ids rejected" test_old_snapshot_ids;
          tc "older state kinds and references checked" test_old_state_kind;
          tc "older decoders never raise" test_old_never_raise;
          tc "schema update and its class in one frame" test_schema_update_frame_crash_sweep;
        ] );
      ( "meta",
        [
          tc "fresh id after a crash" (test_fresh_id_after_crash ~burn:false);
          tc "fresh id after a crash, burned id" (test_fresh_id_after_crash ~burn:true);
          tc "meta operations reopen" test_meta_operations_reopen;
          tc "refused version writes nothing" test_refused_version_writes_nothing;
          tc "failed flush keeps the meta pending" test_failed_flush_keeps_meta_pending;
          tc "empty flush allocation" test_empty_flush_allocation;
          tc "journal bytes pinned" test_journal_bytes_pinned;
        ] );
    ]
