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
  Alcotest.(check bool) "base" true (DB.current_base db = DB.current_base db2)

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
  Alcotest.(check bool) "inheritors" true (DB.inheritors db2 p2 <> []);
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
  (* one more object -> one more item record (plus one meta record) *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Extra" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  let after_second = Persist.Session.journal_records s in
  Alcotest.(check int) "incremental" 2 (after_second - after_first);
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

let test_decoders_never_raise () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  ignore (ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()));
  ignore (ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ a; h ] ()));
  ignore (ok (DB.create_version db));
  ok (DB.reclassify db a ~to_:"InputData");
  (* what decodes must also be usable: every item's name resolves *)
  let names db2 =
    let v = Seed_core.View.current (DB.raw db2) in
    Seed_core.Db_state.iter_items (DB.raw db2) (fun it ->
        ignore (Seed_core.View.full_name v it))
  in
  never_raises "snapshot" (fun p -> Result.map names (Persist.decode_db p)) (Persist.encode_db db);
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
let test_reopen_equals_memory_over_journal () =
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
  check_ok "compact" (Persist.Session.compact s);
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
  ok (DB.begin_alternative db ~from_:v1 ());
  ignore (ok (DB.create_object db ~cls:"Action" ~name:"Late" ()));
  flush ();
  let r_item = Option.get (Db_state.find_item (DB.raw db) r) in
  Alcotest.(check bool) "history-only relationship" true (r_item.Seed_core.Item.current = None);
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
      Alcotest.(check (list string)) "select" (Q.select_names v p) (Q.select_names v2 p))
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
      same "children" Db_state.children_set;
      same "rels of" Db_state.rels_set;
      same "inheritors" Db_state.inheritor_set)
    (ids st @ [ Ident.of_int 9_999 ]);
  Alcotest.(check (list int)) "dirty ids"
    (List.map Ident.to_int (Db_state.dirty_ids st))
    (List.map Ident.to_int (Db_state.dirty_ids st2));
  let content (x : DB.stats) =
    ( (x.st_objects, x.st_sub_objects, x.st_relationships, x.st_patterns),
      (x.st_versions, x.st_items_total, x.st_dirty, x.st_schema_revision),
      (x.st_text_enabled, x.st_text_docs) )
  in
  Alcotest.(check bool) "stats" true (content (DB.stats db) = content (DB.stats db2));
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
          tc "decoders never raise" test_decoders_never_raise;
          tc "reopen equals memory over a journal" test_reopen_equals_memory_over_journal;
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
    ]
