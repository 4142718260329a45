(* Edge cases and failure injection across module boundaries. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module View = Seed_core.View
module Store = Seed_storage.Store
module Server = Seed_server.Server
module Protocol = Seed_server.Protocol

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_robust_%d_%d" (Unix.getpid ()) !counter)

(* --- crash consistency ----------------------------------------------- *)

let test_crash_between_compact_steps () =
  (* Store.compact = write snapshot (at epoch+1), then truncate the
     journal. A crash in between leaves the NEW snapshot plus the OLD
     epoch-0 journal; recovery must detect the epoch mismatch and skip
     the stale journal — its records are already folded into the
     snapshot. *)
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  check_ok "flush1" (Persist.Session.flush s);
  check_ok "reclass" (DB.reclassify db a ~to_:"InputData");
  check_ok "flush2" (Persist.Session.flush s);
  (* simulate the crash: write the epoch-1 snapshot but keep the journal *)
  let snapshot = Persist.encode_db db in
  check_ok "snapshot written"
    (Seed_storage.Snapshot_file.write
       (Filename.concat dir "snapshot.bin") ~epoch:1 snapshot);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "stale journal flagged" true
    (Persist.Session.recovery s2).Store.stale_journal;
  Alcotest.(check (option string)) "state matches snapshot" (Some "InputData")
    (DB.class_of db2 (Option.get (DB.find_object db2 "A")));
  Alcotest.(check int) "one object" 1 (DB.object_count db2);
  Persist.Session.close s2

module Faulty = Seed_storage.Faulty_io

let test_crash_point_sweep () =
  (* Inject an abort at every gated I/O step of a full
     append -> sync -> compact -> append -> compact -> append lifecycle
     and prove that recovery always yields a database consistent with
     what had been acknowledged at the moment of the crash. The first
     compaction starts from no snapshot; the second retires one into
     generation 1, so crash points land on its rotate and retire steps
     too. *)
  let records = [ "a1"; "a2"; "a3" ] and middle = [ "b1"; "b2" ]
  and tail = [ "c1"; "c2" ] in
  let all = records @ middle @ tail in
  (* run the workload, recording acknowledged records in [acked] as we
     go (so the list survives a mid-run crash exception) *)
  let run io dir acked =
    let ack r = acked := !acked @ [ r ] in
    let store, _, _, _ = ok (Store.open_dir ~io ~sync:`Always_fsync dir) in
    let append rs = List.iter (fun r -> ok (Store.append store [ r ]); ack r) rs in
    let compact () =
      ok (Store.compact store ~snapshot:(String.concat "\n" !acked))
    in
    append records;
    ok (Store.sync store);
    compact ();
    append middle;
    compact ();
    append tail;
    Store.close store
  in
  let recovered dir =
    let store, snap, records, report = ok (Store.open_dir dir) in
    Store.close store;
    let from_snap =
      match snap with
      | None -> []
      | Some s -> List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
    in
    (from_snap @ records, report)
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  (* dry run to count the gated I/O steps *)
  let probe = Faulty.create () in
  let full = ref [] in
  run (Faulty.io probe) (tmp_dir ()) full;
  Alcotest.(check (list string)) "dry run completes" all !full;
  let total = Faulty.steps probe in
  Alcotest.(check bool)
    (Printf.sprintf "sweep covers >= 15 crash points (got %d)" total)
    true (total >= 15);
  let stale_seen = ref 0 and generation_seen = ref 0 in
  for n = 0 to total - 1 do
    let dir = tmp_dir () in
    let f = Faulty.create ~crash_at:n ~torn:(n mod 2 = 0) () in
    let acked = ref [] in
    (try
       run (Faulty.io f) dir acked;
       Alcotest.fail (Printf.sprintf "crash point %d did not fire" n)
     with Faulty.Crash _ -> ());
    let state, report = recovered dir in
    if report.Store.stale_journal then incr stale_seen;
    if report.Store.snapshot_generation = Some 1 then incr generation_seen;
    (* with `Always_fsync every acknowledged record is durable, so the
       recovered state must extend [acked]; it may additionally contain
       the single record whose append was in flight when the crash hit;
       and it can never contain anything the workload did not write *)
    Alcotest.(check bool)
      (Printf.sprintf "crash %d: nothing acknowledged lost (%s vs %s)" n
         (String.concat "," !acked) (String.concat "," state))
      true (is_prefix !acked state);
    Alcotest.(check bool)
      (Printf.sprintf "crash %d: recovered [%s] is a workload prefix" n
         (String.concat "," state))
      true (is_prefix state all);
    Alcotest.(check bool)
      (Printf.sprintf "crash %d: at most one in-flight record" n)
      true (List.length state <= List.length !acked + 1);
    (* recovery is convergent: a second open is clean and identical *)
    let state2, report2 = recovered dir in
    Alcotest.(check (list string))
      (Printf.sprintf "crash %d: stable" n) state state2;
    Alcotest.(check bool)
      (Printf.sprintf "crash %d: second open clean" n)
      true (Store.recovery_clean report2)
  done;
  Alcotest.(check bool) "epoch-skip path exercised" true (!stale_seen >= 1);
  Alcotest.(check bool) "generation-1 recovery exercised" true
    (!generation_seen >= 1)

let test_flush_atomicity_crash_sweep () =
  (* The transaction-frame contract: a multi-item [Session.flush] goes
     into the journal as one frame, so a crash at ANY I/O point leaves
     either the whole transaction or none of it. Sweep a crash over
     every gated I/O step of a two-flush workload and classify the
     recovered database — a partially applied transaction (some of the
     new items but not all) is the bug this machinery exists to
     prevent. *)
  let run io dir acked =
    let s =
      ok
        (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ~io
           ~sync:`Always_fsync ())
    in
    let db = Persist.Session.db s in
    let base = ok (DB.create_object db ~cls:"Data" ~name:"Base" ()) in
    ok (Persist.Session.flush s);
    acked := `Base;
    (* the multi-item transaction under test: two objects, a
       relationship, a valued sub-object and a rename — five dirty
       items plus metadata, flushed as one journal frame *)
    ok
      (DB.with_transaction db (fun () ->
           let open Seed_util.Seed_error in
           let* d = DB.create_object db ~cls:"InputData" ~name:"D" () in
           let* a = DB.create_object db ~cls:"Action" ~name:"A" () in
           let* _ =
             DB.create_relationship db ~assoc:"Read" ~endpoints:[ d; a ] ()
           in
           let* _ =
             DB.create_sub_object db ~parent:d ~role:"Description"
               ~value:(Value.String "atomic") ()
           in
           DB.rename_object db base "Root"));
    ok (Persist.Session.flush s);
    acked := `Full;
    Persist.Session.close s
  in
  let rank = function `Empty -> 0 | `Base -> 1 | `Full -> 2 | `Partial -> -1 in
  let classify db =
    let has n = DB.find_object db n <> None in
    match (has "Base", has "D", has "A", has "Root") with
    | false, false, false, false -> `Empty
    | true, false, false, false -> `Base
    | false, true, true, true ->
      let d = Option.get (DB.find_object db "D") in
      let rel_ok = DB.relationships db d <> [] in
      let sub_ok =
        match DB.resolve db "D.Description" with
        | Some id -> DB.get_value db id = Some (Value.String "atomic")
        | None -> false
      in
      if rel_ok && sub_ok then `Full else `Partial
    | _ -> `Partial
  in
  let recovered dir =
    let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
    let db = Persist.Session.db s in
    let c = classify db in
    check_ok "recovered state consistent"
      (Seed_core.Consistency.check_database (View.current (DB.raw db)));
    Persist.Session.close s;
    c
  in
  (* dry run to count the I/O steps and fix the expected end state *)
  let probe = Faulty.create () in
  let final = ref `Empty in
  run (Faulty.io probe) (tmp_dir ()) final;
  Alcotest.(check bool) "dry run commits" true (!final = `Full);
  let total = Faulty.steps probe in
  Alcotest.(check bool)
    (Printf.sprintf "sweep covers >= 6 crash points (got %d)" total)
    true (total >= 6);
  for n = 0 to total - 1 do
    let dir = tmp_dir () in
    let f = Faulty.create ~crash_at:n ~torn:(n mod 2 = 0) () in
    let acked = ref `Empty in
    (try
       run (Faulty.io f) dir acked;
       Alcotest.fail (Printf.sprintf "crash point %d did not fire" n)
     with Faulty.Crash _ -> ());
    let c = recovered dir in
    if rank c < 0 then
      Alcotest.failf "crash %d: partially applied transaction visible" n;
    if rank c < rank !acked then
      Alcotest.failf "crash %d: acknowledged state lost" n;
    (* recovery is convergent: the second open is identical *)
    Alcotest.(check bool)
      (Printf.sprintf "crash %d: stable" n)
      true
      (recovered dir = c)
  done

(* The root's unflushed set is cleared only once a flush is durable: a
   flush that fails with ENOSPC leaves every record pending, so the next
   flush (carrying later changes too) makes the store equal to memory. *)
let test_failed_flush_keeps_records_pending () =
  let dir = tmp_dir () in
  let f = Faulty.create ~enospc_write:1 () in
  let s =
    ok
      (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ~io:(Faulty.io f)
         ~sync:`Always_fsync ())
  in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ =
    ok (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ())
  in
  check_err "flush fails" (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.Session.flush s);
  Alcotest.(check int) "still pending" 2
    (Ident.Set.cardinal (Seed_core.Db_state.unflushed (DB.raw db)));
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  check_ok "retry flushes" (Persist.Session.flush s);
  let expected = Persist.encode_db db in
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  Alcotest.(check bool) "reopened = in memory" true
    (String.equal expected (Persist.encode_db (Persist.Session.db s2)));
  Persist.Session.close s2

let test_stale_journal_records_last_wins () =
  (* many updates to the same item produce many journal records; the
     last one must win on replay *)
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let d = ok (DB.create_sub_object db ~parent:a ~role:"Description" ()) in
  for i = 1 to 10 do
    check_ok "set" (DB.set_value db d (Some (Value.String (string_of_int i))));
    check_ok "flush" (Persist.Session.flush s)
  done;
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "last wins" true
    (DB.get_value db2 d = Some (Value.String "10"));
  Persist.Session.close s2

let test_load_verification_catches_tampering () =
  let dir = tmp_dir () in
  let db = fresh_db () in
  (* a relationship whose endpoint class we will corrupt *)
  let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ d; a ] ()) in
  (* break the invariant behind the API's back, then save *)
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) d) in
  (match item.Seed_core.Item.current with
  | Some (Seed_core.Item.Obj o) ->
    Seed_core.Db_state.unsafe_put_item (DB.raw db)
      (Seed_core.Item.with_current item
         (Some (Seed_core.Item.Obj { o with Seed_core.Item.cls = "Action" })))
  | _ -> ());
  check_ok "save" (Persist.save db ~dir);
  check_err "verification refuses" is_membership (Persist.load ~dir ());
  (* but a forced load works for forensics *)
  check_ok "unverified load"
    (Result.map (fun _ -> ()) (Persist.load ~verify:false ~dir ()))

(* Every rule the load-time sweep enforces, one tampered store each: the
   damage is planted behind the API's back with [unsafe_put_item], the
   store is saved, and a verified load must refuse it with the rule's own
   error while an unverified load still opens it for forensics. *)
module Item = Seed_core.Item
module Db_state = Seed_core.Db_state

let put db (it : Item.t) = Db_state.unsafe_put_item (DB.raw db) it

let obj_state ?value cls =
  Item.Obj { Item.name = None; cls; value; pattern = false; inherits = []; deleted = false }

let put_child db ~parent ~role ?index ?value cls =
  let id = Db_state.fresh_id (DB.raw db) in
  put db (Item.make id (Item.Dependent { parent; role; index }) (obj_state ?value cls))

let put_rel db assoc ?(attrs = []) endpoints =
  let id = Db_state.fresh_id (DB.raw db) in
  put db
    (Item.make id Item.Relationship
       (Item.Rel
          { Item.assoc; endpoints; rel_attrs = attrs; rel_pattern = false; rel_deleted = false }))

let restate db id f =
  let it = Option.get (Db_state.find_item (DB.raw db) id) in
  put db (Item.with_current it (Option.map f it.Item.current))

let with_obj f = function Item.Obj o -> Item.Obj (f o) | s -> s
let is_invalid = function Seed_error.Invalid_operation _ -> true | _ -> false
let is_unknown_item = function Seed_error.Unknown_item _ -> true | _ -> false
let is_unknown_class = function Seed_error.Unknown_class _ -> true | _ -> false

let tamper_cases =
  [
    ( "wrong value type",
      is_type,
      fun db d _ ->
        let desc = ok (DB.create_sub_object db ~parent:d ~role:"Description" ()) in
        restate db desc (with_obj (fun o -> { o with Item.value = Some (Value.Int 3) })) );
    ( "value on a class without content",
      is_type,
      fun db d _ -> restate db d (with_obj (fun o -> { o with Item.value = Some (Value.String "x") }))
    );
    ( "child of the wrong class",
      is_membership,
      fun db d _ -> put_child db ~parent:d ~role:"Description" "Thing.Keywords" );
    ( "child count over its maximum",
      is_cardinality,
      fun db d _ ->
        put_child db ~parent:d ~role:"Description" "Thing.Description";
        put_child db ~parent:d ~role:"Description" "Thing.Description" );
    ( "(role, index) collision",
      is_pattern_violation,
      fun db d _ ->
        put_child db ~parent:d ~role:"Keywords" ~index:1 "Thing.Keywords";
        put_child db ~parent:d ~role:"Keywords" ~index:1 "Thing.Keywords" );
    ( "participation over its maximum",
      is_cardinality,
      fun db _ a ->
        let c1 = ok (DB.create_object db ~cls:"Action" ~name:"C1" ()) in
        let c2 = ok (DB.create_object db ~cls:"Action" ~name:"C2" ()) in
        put_rel db "Contained" [ a; c1 ];
        put_rel db "Contained" [ a; c2 ] );
    ( "cycle in an ACYCLIC association",
      is_cycle,
      fun db _ a ->
        let c = ok (DB.create_object db ~cls:"Action" ~name:"C" ()) in
        put_rel db "Contained" [ a; c ];
        put_rel db "Contained" [ c; a ] );
    ( "object of an unknown class",
      is_unknown_class,
      fun db d _ -> restate db d (with_obj (fun o -> { o with Item.cls = "Nowhere" })) );
    ("relationship arity", is_invalid, fun db d a -> put_rel db "Read" [ d; a; a ]);
    ( "dangling endpoint",
      is_unknown_item,
      fun db d _ -> put_rel db "Read" [ d; Ident.of_int 99_999 ] );
    ( "relationship attribute of the wrong type",
      is_type,
      fun db _ a ->
        let o = ok (DB.create_object db ~cls:"OutputData" ~name:"O" ()) in
        put_rel db "Write" ~attrs:[ ("NumberOfWrites", Value.String "x") ] [ o; a ] );
  ]

let test_verification_refuses_every_rule () =
  List.iter
    (fun (rule, refused, tamper) ->
      let db = fresh_db () in
      let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
      let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
      check_ok (rule ^ ": consistent before") (Seed_core.Consistency.check_database (View.current (DB.raw db)));
      tamper db d a;
      let dir = tmp_dir () in
      check_ok (rule ^ ": save") (Persist.save db ~dir);
      check_err (rule ^ ": refused") refused (Persist.load ~dir ());
      check_ok (rule ^ ": unverified load")
        (Result.map (fun _ -> ()) (Persist.load ~verify:false ~dir ())))
    tamper_cases

(* A refused open must not leak the journal it opened: a hundred opens
   of a tampered store leave the process's descriptor count unchanged. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_refused_open_closes_store () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
  restate db d (with_obj (fun o -> { o with Item.value = Some (Value.String "x") }));
  let dir = tmp_dir () in
  check_ok "save" (Persist.save db ~dir);
  let before = open_fds () in
  for _ = 1 to 100 do
    check_err "refused" is_type (Result.map (fun _ -> ()) (Persist.Session.open_ ~dir ()))
  done;
  Alcotest.(check int) "descriptors" before (open_fds ())

(* --- deep version trees ---------------------------------------------- *)

let test_deep_branch_tree () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  check_ok "trunk grows" (DB.rename_object db a "Trunk");
  let _v2 = ok (DB.create_version db) in
  (* a chain of 9 nested branches hanging off the historical 1.0 *)
  let v = ref v1 in
  for i = 1 to 9 do
    ok (DB.begin_alternative db ~from_:!v ());
    check_ok "touch" (DB.rename_object db a (Printf.sprintf "A%d" i));
    v := ok (DB.create_version db)
  done;
  Alcotest.(check string) "deep label" "1.1.1.1.1.1.1.1.1.1"
    (Version_id.to_string !v);
  (* every level resolves its own name *)
  ok (DB.select_version db (Some !v));
  Alcotest.(check bool) "leaf view" true (DB.find_object db "A9" = Some a);
  ok (DB.select_version db (Some v1));
  Alcotest.(check bool) "root view" true (DB.find_object db "A" = Some a);
  ok (DB.select_version db None);
  (* the tree survives persistence *)
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  Alcotest.(check int) "versions survive" 11 (List.length (DB.versions db2))

let test_many_siblings () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let base = ok (DB.create_version db) in
  check_ok "trunk grows" (DB.rename_object db a "Trunk");
  let _v2 = ok (DB.create_version db) in
  (* 1.0 is now historical: deriving from it opens sibling branches *)
  for i = 1 to 9 do
    ok (DB.begin_alternative db ~from_:base ~force:true ());
    check_ok "touch" (DB.rename_object db a (Printf.sprintf "A%d" i));
    let v = ok (DB.create_version db) in
    Alcotest.(check string) "sibling label" (Printf.sprintf "1.%d" i)
      (Version_id.to_string v)
  done;
  (* continuing from the latest trunk version extends the trunk *)
  ok (DB.begin_alternative db ~from_:(Version_id.trunk 2) ~force:true ());
  check_ok "touch" (DB.rename_object db a "T3");
  let v3 = ok (DB.create_version db) in
  Alcotest.(check string) "trunk continues" "3.0" (Version_id.to_string v3)

(* --- pattern name resolution ------------------------------------------ *)

let test_resolve_into_patterns () =
  let db = fresh_db () in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:po ~role:"Description"
         ~value:(Value.String "std") ())
  in
  (* the pattern's own composed name resolves (tools need to edit it) *)
  Alcotest.(check bool) "pattern sub resolvable" true
    (DB.resolve db "Template.Description" <> None);
  (* but plain object retrieval does not see it *)
  Alcotest.(check (option Alcotest.reject)) "find_object blind" None
    (DB.find_object db "Template")

let test_pattern_rename_propagates_to_inherited_names () =
  let db = fresh_db () in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let sub = ok (DB.create_sub_object db ~parent:po ~role:"Description" ~value:(Value.String "s") ()) in
  let inh = ok (DB.create_object db ~cls:"Data" ~name:"Real" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:inh);
  let v = DB.view db in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) inh) in
  let kid = Option.get (View.child_v v (View.vitem_real item) ~role:"Description" ()) in
  Alcotest.(check (option string)) "inherited name" (Some "Real.Description")
    (View.vitem_name v kid);
  (* renaming the inheritor renames the view *)
  check_ok "rename" (DB.rename_object db inh "Realer");
  Alcotest.(check (option string)) "follows rename" (Some "Realer.Description")
    (View.vitem_name v kid);
  ignore sub

(* --- server batches ---------------------------------------------------- *)

let test_batch_creates_and_uses_fresh_objects () =
  let s = Server.create (fig3_schema ()) in
  check_ok "empty checkout ok" (Server.checkout s ~client:"alice" ~names:[]);
  check_ok "whole cluster in one batch"
    (Server.checkin s ~client:"alice"
       [
         Protocol.Create_object { cls = "InputData"; name = "D"; pattern = false };
         Protocol.Create_object { cls = "Action"; name = "A"; pattern = false };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "D"; "A" ]; pattern = false };
         Protocol.Create_sub
           { owner = "D"; role = "Description"; index = None;
             value = Some (Value.String "fresh") };
       ]);
  let db = Server.database s in
  Alcotest.(check int) "two objects" 2 (DB.object_count db);
  Alcotest.(check bool) "sub exists" true (DB.resolve db "D.Description" <> None)

let test_batch_rename_then_reference () =
  let s = Server.create (fig3_schema ()) in
  let db = Server.database s in
  let _ = ok (DB.create_object db ~cls:"InputData" ~name:"Old" ()) in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Old" ]);
  check_ok "rename then use new name"
    (Server.checkin s ~client:"alice"
       [
         Protocol.Rename { name = "Old"; new_name = "New" };
         Protocol.Create_sub
           { owner = "New"; role = "Description"; index = None;
             value = Some (Value.String "renamed") };
       ]);
  Alcotest.(check bool) "applied" true (DB.resolve db "New.Description" <> None)

(* A rolled-back check-in on a durable server swaps the root back, and
   the unflushed set with it: the next flush has nothing to write. *)
let test_rolled_back_checkin_flushes_nothing () =
  let dir = tmp_dir () in
  let session = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let s = Server.of_session session in
  check_ok "checkout none" (Server.checkout s ~client:"a" ~names:[]);
  check_ok "create"
    (Server.checkin s ~client:"a"
       [
         Protocol.Create_object { cls = "Data"; name = "X"; pattern = false };
         Protocol.Create_object { cls = "Data"; name = "Y"; pattern = false };
       ]);
  check_ok "checkout X" (Server.checkout s ~client:"a" ~names:[ "X" ]);
  (* the first reclassification applies, then the second fails *)
  check_err "fails" (fun _ -> true)
    (Server.checkin s ~client:"a"
       [
         Protocol.Reclassify_obj { name = "X"; to_ = "InputData" };
         Protocol.Reclassify_obj { name = "X"; to_ = "NoSuchClass" };
       ]);
  let db = Server.database s in
  Alcotest.(check (option string)) "rolled back" (Some "Data")
    (DB.class_of db (Option.get (DB.find_object db "X")));
  Alcotest.(check int) "nothing unflushed" 0
    (Ident.Set.cardinal (Seed_core.Db_state.unflushed (DB.raw db)));
  let before = Persist.Session.journal_records session in
  check_ok "flush" (Persist.Session.flush session);
  Alcotest.(check int) "no records" before (Persist.Session.journal_records session);
  Persist.Session.close session

let test_server_rollback_preserves_procedures () =
  let schema =
    Schema.of_defs_exn
      [ Class_def.v ~procedures:[ "p" ] [ "Doc" ] ]
      []
  in
  let s = Server.create schema in
  let hits = ref 0 in
  Seed_core.Database.register_procedure (Server.database s) "p" (fun _ _ ->
      incr hits;
      Ok ());
  check_ok "checkout none" (Server.checkout s ~client:"a" ~names:[]);
  (* second op fails (duplicate), rolling the database back *)
  check_err "fails" is_duplicate
    (Server.checkin s ~client:"a"
       [
         Protocol.Create_object { cls = "Doc"; name = "X"; pattern = false };
         Protocol.Create_object { cls = "Doc"; name = "X"; pattern = false };
       ]);
  (* procedures survived the snapshot/restore *)
  check_ok "retry"
    (Server.checkin s ~client:"a"
       [ Protocol.Create_object { cls = "Doc"; name = "X"; pattern = false } ]);
  Alcotest.(check bool) "procedure still registered" true (!hits >= 2)

(* --- attached-procedure reentrancy -------------------------------------- *)

let reentrant_schema () =
  Schema.of_defs_exn
    [
      Class_def.v ~procedures:[ "derive" ] [ "Doc" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.Int
        [ "Doc"; "Pages" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.String
        [ "Doc"; "SizeClass" ];
    ]
    []

let test_procedure_performs_derived_update () =
  (* the paper's "complex integrity constraints": a procedure keeps a
     derived attribute in sync with a stored one *)
  let db = DB.create (reentrant_schema ()) in
  DB.register_procedure db "derive" (fun st e ->
      let ddb = Seed_core.Database.of_raw st in
      match e with
      | Seed_core.Event.Value_updated { id; _ } -> (
        match DB.get_value ddb id with
        | Some (Value.Int n) -> (
          (* only react to Pages updates *)
          match DB.full_name ddb id with
          | Some name when Filename.check_suffix name ".Pages" |> not -> Ok ()
          | _ ->
            let doc =
              match Seed_core.Db_state.find_item st id with
              | Some { Seed_core.Item.body = Seed_core.Item.Dependent { parent; _ }; _ } ->
                parent
              | _ -> id
            in
            let label = if n > 100 then "long" else "short" in
            let set target =
              DB.set_value ddb target (Some (Value.String label))
            in
            (match DB.resolve ddb (Option.get (DB.full_name ddb doc) ^ ".SizeClass") with
            | Some sc -> set sc
            | None ->
              Result.map (fun _ -> ())
                (DB.create_sub_object ddb ~parent:doc ~role:"SizeClass"
                   ~value:(Value.String label) ())))
        | _ -> Ok ())
      | _ -> Ok ());
  let doc = ok (DB.create_object db ~cls:"Doc" ~name:"Spec" ()) in
  let pages = ok (DB.create_sub_object db ~parent:doc ~role:"Pages" ()) in
  check_ok "set pages" (DB.set_value db pages (Some (Value.Int 250)));
  Alcotest.(check bool) "derived" true
    (match DB.resolve db "Spec.SizeClass" with
    | Some sc -> DB.get_value db sc = Some (Value.String "long")
    | None -> false);
  check_ok "shrink" (DB.set_value db pages (Some (Value.Int 10)));
  Alcotest.(check bool) "re-derived" true
    (match DB.resolve db "Spec.SizeClass" with
    | Some sc -> DB.get_value db sc = Some (Value.String "short")
    | None -> false)

let test_procedure_recursion_guard () =
  (* a procedure that re-triggers itself forever is cut off by the
     nesting guard and the whole update rolls back *)
  let db = DB.create (reentrant_schema ()) in
  let n = ref 0 in
  DB.register_procedure db "derive" (fun st _ ->
      incr n;
      let ddb = Seed_core.Database.of_raw st in
      Result.map
        (fun _ -> ())
        (DB.create_object ddb ~cls:"Doc" ~name:(Printf.sprintf "spawn%d" !n) ()))
  ;
  check_err "cut off"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_object db ~cls:"Doc" ~name:"Doc0" ());
  Alcotest.(check bool) "bounded" true (!n <= 32)

(* --- miscellaneous ------------------------------------------------------ *)

let test_uninherit_then_delete_pattern_subtree () =
  let db = fresh_db () in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"P" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:po ~role:"Description" ~value:(Value.String "x") ()) in
  let o = ok (DB.create_object db ~cls:"Data" ~name:"O" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:o);
  check_ok "uninherit" (DB.uninherit_pattern db ~pattern:po ~inheritor:o);
  check_ok "delete pattern" (DB.delete db po);
  (* the former inheritor is unaffected and consistent *)
  Alcotest.(check bool) "object intact" true (DB.exists db o);
  check_ok "sweep"
    (Seed_core.Consistency.check_database (View.current (DB.raw db)))

let test_delete_inheritor_keeps_pattern () =
  let db = fresh_db () in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"P" ~pattern:true ()) in
  let o = ok (DB.create_object db ~cls:"Data" ~name:"O" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:o);
  check_ok "delete inheritor" (DB.delete db o);
  Alcotest.(check (list Alcotest.reject)) "no inheritors left" []
    (DB.inheritors db po);
  (* pattern is now deletable *)
  check_ok "delete pattern" (DB.delete db po)

let test_reuse_name_after_delete_in_new_version () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"X" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.delete db a);
  let b = ok (DB.create_object db ~cls:"Action" ~name:"X" ()) in
  let _v2 = ok (DB.create_version db) in
  (* both versions resolve "X" to the item that was live then *)
  ok (DB.select_version db (Some v1));
  Alcotest.(check bool) "v1 X is data" true (DB.find_object db "X" = Some a);
  ok (DB.select_version db None);
  Alcotest.(check bool) "current X is action" true (DB.find_object db "X" = Some b)

let () =
  Alcotest.run "robustness"
    [
      ( "crash consistency",
        [
          tc "compact interrupted" test_crash_between_compact_steps;
          tc "crash-point sweep" test_crash_point_sweep;
          tc "flush atomicity sweep" test_flush_atomicity_crash_sweep;
          tc "failed flush keeps records pending"
            test_failed_flush_keeps_records_pending;
          tc "last record wins" test_stale_journal_records_last_wins;
          tc "verification on load" test_load_verification_catches_tampering;
          tc "verification refuses every rule" test_verification_refuses_every_rule;
          tc "refused open closes the store" test_refused_open_closes_store;
        ] );
      ( "version trees",
        [
          tc "deep branches" test_deep_branch_tree;
          tc "many siblings" test_many_siblings;
          tc "name reuse across versions" test_reuse_name_after_delete_in_new_version;
        ] );
      ( "patterns",
        [
          tc "resolution into patterns" test_resolve_into_patterns;
          tc "renames propagate" test_pattern_rename_propagates_to_inherited_names;
          tc "uninherit then delete" test_uninherit_then_delete_pattern_subtree;
          tc "delete inheritor" test_delete_inheritor_keeps_pattern;
        ] );
      ( "procedure reentrancy",
        [
          tc "derived updates" test_procedure_performs_derived_update;
          tc "recursion guard" test_procedure_recursion_guard;
        ] );
      ( "server batches",
        [
          tc "fresh objects in one batch" test_batch_creates_and_uses_fresh_objects;
          tc "rename then reference" test_batch_rename_then_reference;
          tc "rollback keeps procedures" test_server_rollback_preserves_procedures;
          tc "rolled-back checkin flushes nothing"
            test_rolled_back_checkin_flushes_nothing;
        ] );
    ]
