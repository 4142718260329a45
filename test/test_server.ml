(* The multi-user sketch: central server, write locks, single-transaction
   check-in (paper, §Discussion / open problems). *)

open Seed_util
open Helpers
module Server = Seed_server.Server
module Client = Seed_server.Client
module Protocol = Seed_server.Protocol
module DB = Seed_core.Database

let schema () = fig3_schema ()

let with_seeded_server () =
  let s = Server.create (schema ()) in
  let db = Server.database s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"Handler" ()) in
  s

let test_checkout_locks () =
  let s = with_seeded_server () in
  check_ok "alice" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  Alcotest.(check (list string)) "alice holds" [ "Alarms" ]
    (Server.locked_by s ~client:"alice");
  check_err "bob blocked"
    (function Seed_error.Locked _ -> true | _ -> false)
    (Server.checkout s ~client:"bob" ~names:[ "Alarms" ]);
  (* disjoint checkout fine *)
  check_ok "bob other" (Server.checkout s ~client:"bob" ~names:[ "Handler" ]);
  (* all-or-nothing: overlapping set acquires nothing *)
  check_err "partial conflict"
    (function Seed_error.Locked _ -> true | _ -> false)
    (Server.checkout s ~client:"bob" ~names:[ "Handler"; "Alarms" ]);
  ignore (Server.release s ~client:"alice");
  check_ok "bob after release" (Server.checkout s ~client:"bob" ~names:[ "Alarms" ])

let test_checkout_requires_existing () =
  let s = with_seeded_server () in
  check_err "ghost"
    (function Seed_error.Unknown_object _ -> true | _ -> false)
    (Server.checkout s ~client:"alice" ~names:[ "Ghost" ])

let test_checkin_requires_locks () =
  let s = with_seeded_server () in
  check_err "unlocked write"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (Server.checkin s ~client:"alice"
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" } ])

let test_checkin_applies_and_releases () =
  let s = with_seeded_server () in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms"; "Handler" ]);
  check_ok "checkin"
    (Server.checkin s ~client:"alice"
       [
         Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "Alarms"; "Handler" ]; pattern = false };
         Protocol.Create_sub
           {
             owner = "Alarms";
             role = "Description";
             index = None;
             value = Some (Seed_schema.Value.String "checked in");
           };
       ]);
  let db = Server.database s in
  let alarms = Option.get (DB.find_object db "Alarms") in
  Alcotest.(check (option string)) "applied" (Some "InputData") (DB.class_of db alarms);
  Alcotest.(check int) "rel there" 1 (List.length (DB.relationships db alarms));
  Alcotest.(check (list string)) "locks released" []
    (Server.locked_by s ~client:"alice");
  Alcotest.(check int) "counted" 1 (Server.checkin_count s)

let test_checkin_is_atomic () =
  let s = with_seeded_server () in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms"; "Handler" ]);
  (* second op fails (Read needs InputData); first must be rolled back *)
  check_err "fails"
    (function Seed_error.Membership_violation _ -> true | _ -> false)
    (Server.checkin s ~client:"alice"
       [
         Protocol.Rename { name = "Alarms"; new_name = "Alerts" };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "Alerts"; "Handler" ]; pattern = false };
       ]);
  let db = Server.database s in
  Alcotest.(check bool) "rename rolled back" true (DB.find_object db "Alarms" <> None);
  Alcotest.(check (option Alcotest.reject)) "no Alerts" None (DB.find_object db "Alerts");
  (* locks kept so the client can amend and retry *)
  Alcotest.(check bool) "locks kept" true (Server.locked_by s ~client:"alice" <> []);
  check_ok "retry"
    (Server.checkin s ~client:"alice"
       [
         Protocol.Reclassify_obj { name = "Alarms"; to_ = "InputData" };
         Protocol.Rename { name = "Alarms"; new_name = "Alerts" };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "Alerts"; "Handler" ]; pattern = false };
       ]);
  Alcotest.(check bool) "applied after retry" true (DB.find_object db "Alerts" <> None)

let test_checkin_rollback_mixed_batch () =
  (* every kind of applied mutation is undone when a later op fails:
     creations vanish, renames revert, values come back *)
  let s = with_seeded_server () in
  let db = Server.database s in
  let alarms = Option.get (DB.find_object db "Alarms") in
  let desc =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Description"
         ~value:(Seed_schema.Value.String "old") ())
  in
  check_ok "checkout"
    (Server.checkout s ~client:"alice" ~names:[ "Alarms"; "Handler" ]);
  let before_count = DB.object_count db in
  check_err "batch fails at the end" is_duplicate
    (Server.checkin s ~client:"alice"
       [
         Protocol.Create_object
           { cls = "InputData"; name = "Fresh"; pattern = false };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "Fresh"; "Handler" ]; pattern = false };
         Protocol.Set_value
           {
             path = "Alarms.Description";
             value = Some (Seed_schema.Value.String "new");
           };
         Protocol.Rename { name = "Alarms"; new_name = "Sirens" };
         Protocol.Create_sub
           { owner = "Sirens"; role = "Keywords"; index = None;
             value = Some (Seed_schema.Value.String "k") };
         (* the failure: "Handler" already exists *)
         Protocol.Create_object { cls = "Data"; name = "Handler"; pattern = false };
       ]);
  Alcotest.(check (option Alcotest.reject)) "created object gone" None
    (DB.find_object db "Fresh");
  Alcotest.(check (option Alcotest.reject)) "rename reverted" None
    (DB.find_object db "Sirens");
  Alcotest.(check bool) "old name back" true
    (DB.find_object db "Alarms" = Some alarms);
  Alcotest.(check bool) "value restored" true
    (DB.get_value db desc = Some (Seed_schema.Value.String "old"));
  Alcotest.(check (option Alcotest.reject)) "created sub gone" None
    (DB.resolve db "Alarms.Keywords[0]");
  let handler = Option.get (DB.find_object db "Handler") in
  Alcotest.(check (list Alcotest.reject)) "relationship gone" []
    (DB.relationships db handler);
  Alcotest.(check int) "object count unchanged" before_count
    (DB.object_count db);
  Alcotest.(check bool) "locks kept" true
    (Server.locked_by s ~client:"alice" <> []);
  check_ok "rolled-back state is consistent"
    (Seed_core.Consistency.check_database
       (Seed_core.View.current (DB.raw db)));
  (* the same batch minus the bad op goes through on the kept locks *)
  check_ok "retry"
    (Server.checkin s ~client:"alice"
       [
         Protocol.Create_object
           { cls = "InputData"; name = "Fresh"; pattern = false };
         Protocol.Create_rel
           { assoc = "Read"; endpoints = [ "Fresh"; "Handler" ]; pattern = false };
         Protocol.Set_value
           {
             path = "Alarms.Description";
             value = Some (Seed_schema.Value.String "new");
           };
         Protocol.Rename { name = "Alarms"; new_name = "Sirens" };
       ]);
  Alcotest.(check bool) "applied after retry" true
    (DB.find_object db "Sirens" = Some alarms)

let test_rename_collision_needs_target_lock () =
  (* renaming onto an existing object's name contends with that object:
     the target must be covered by the client's locks; a fresh target
     name needs none *)
  let s = with_seeded_server () in
  check_ok "checkout source only"
    (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_err "collision without target lock"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (Server.checkin s ~client:"alice"
       [ Protocol.Rename { name = "Alarms"; new_name = "Handler" } ]);
  check_ok "fresh target needs no lock"
    (Server.checkin s ~client:"alice"
       [ Protocol.Rename { name = "Alarms"; new_name = "Klaxons" } ])

let touches op =
  let names = ref [] in
  Protocol.iter_touches op (fun n -> names := n :: !names);
  List.rev !names

let test_touches_roots_and_rename () =
  let t op = List.sort String.compare (touches op) in
  Alcotest.(check (list string)) "rel endpoints reduce to roots" [ "A"; "B" ]
    (t (Protocol.Create_rel
          { assoc = "R"; endpoints = [ "A.Sub"; "B" ]; pattern = false }));
  Alcotest.(check (list string)) "reclassify_rel too" [ "A"; "B" ]
    (t (Protocol.Reclassify_rel
          { assoc = "R"; endpoints = [ "A.Sub.Deep"; "B" ]; to_ = "S" }));
  Alcotest.(check (list string)) "rename lists both ends" [ "New"; "Old" ]
    (t (Protocol.Rename { name = "Old"; new_name = "New" }));
  Alcotest.(check (list string)) "create_object is fresh" []
    (t (Protocol.Create_object { cls = "C"; name = "X"; pattern = false }))

let test_two_clients_disjoint_edits () =
  let s = with_seeded_server () in
  let db = Server.database s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Config" ()) in
  check_ok "alice" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_ok "bob" (Server.checkout s ~client:"bob" ~names:[ "Config" ]);
  check_ok "alice in"
    (Server.checkin s ~client:"alice"
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "OutputData" } ]);
  check_ok "bob in"
    (Server.checkin s ~client:"bob"
       [ Protocol.Reclassify_obj { name = "Config"; to_ = "InputData" } ]);
  Alcotest.(check (option string)) "alice's edit" (Some "OutputData")
    (DB.class_of db (Option.get (DB.find_object db "Alarms")));
  Alcotest.(check (option string)) "bob's edit" (Some "InputData")
    (DB.class_of db (Option.get (DB.find_object db "Config")))

let test_client_api () =
  let s = with_seeded_server () in
  let alice = Client.connect s ~name:"alice" in
  check_ok "checkout" (Client.checkout alice [ "Alarms" ]);
  Client.stage alice (Protocol.Reclassify_obj { name = "Alarms"; to_ = "Data" });
  Client.stage alice
    (Protocol.Create_sub
       { owner = "Alarms"; role = "Keywords"; index = None;
         value = Some (Seed_schema.Value.String "alarm") });
  check_ok "commit" (Client.commit alice);
  (* the locks went with the check-in: a second commit succeeds only if
     the queue was cleared *)
  check_ok "queue cleared" (Client.commit alice);
  Alcotest.(check bool) "visible" true
    (Seed_core.View.find_object (Server.snapshot s) "Alarms" <> None)

let test_client_abort () =
  let s = with_seeded_server () in
  let alice = Client.connect s ~name:"alice" in
  check_ok "checkout" (Client.checkout alice [ "Alarms" ]);
  Client.stage alice (Protocol.Delete { path = "Alarms" });
  Client.abort alice;
  Alcotest.(check (list string)) "locks released" []
    (Server.locked_by s ~client:"alice");
  (* a commit after the abort sends nothing *)
  check_ok "checkout again" (Client.checkout alice [ "Alarms" ]);
  check_ok "queue dropped" (Client.commit alice);
  let db = Server.database s in
  Alcotest.(check bool) "nothing applied" true (DB.find_object db "Alarms" <> None)

module Lock_table = Seed_server.Lock_table

let test_acquire_wait_succeeds_after_release () =
  let clock = ref 0.0 in
  let lt = Lock_table.create () in
  check_ok "a holds" (Lock_table.acquire lt ~client:"a" [ "X" ]);
  let delays = ref [] in
  let sleep d =
    delays := d :: !delays;
    clock := !clock +. d;
    (* the holder finishes its work after the second backoff *)
    if List.length !delays = 2 then ignore (Lock_table.release lt ~client:"a")
  in
  check_ok "b waits it out"
    (Lock_table.acquire_wait lt ~client:"b"
       ~now:(fun () -> !clock)
       ~sleep ~timeout:60.0 [ "X" ]);
  Alcotest.(check (list string)) "b holds now" [ "X" ]
    (Lock_table.held_by lt ~client:"b");
  Alcotest.(check int) "two waits" 2 (List.length !delays);
  Alcotest.(check bool) "backoff grows" true
    (match !delays with [ d2; d1 ] -> d2 > d1 | _ -> false)

let test_acquire_wait_times_out () =
  let clock = ref 0.0 in
  let lt = Lock_table.create () in
  check_ok "a holds" (Lock_table.acquire lt ~client:"a" [ "X" ]);
  let sleep d = clock := !clock +. d in
  check_err "locked after deadline"
    (function
      | Seed_error.Locked { item = "X"; holder = "a" } -> true | _ -> false)
    (Lock_table.acquire_wait lt ~client:"b"
       ~now:(fun () -> !clock)
       ~sleep ~timeout:0.05 [ "X" ]);
  Alcotest.(check bool) "clock advanced past deadline" true (!clock >= 0.05);
  (* the failed waiter left no wait-for edge behind: a fresh third
     client sees no phantom cycle through b *)
  check_ok "c acquires free name" (Lock_table.acquire lt ~client:"c" [ "Y" ])

let test_deadlock_detected_and_broken () =
  (* a holds X and wants Y; b holds Y and, from inside a's backoff,
     wants X — the classic cycle. b closes it, so b is the victim:
     its locks are released and a's next attempt succeeds. *)
  let lt = Lock_table.create () in
  check_ok "a holds X" (Lock_table.acquire lt ~client:"a" [ "X" ]);
  check_ok "b holds Y" (Lock_table.acquire lt ~client:"b" [ "Y" ]);
  let b_result = ref None in
  let a_sleep _ =
    if !b_result = None then
      b_result :=
        Some
          (Lock_table.acquire_wait lt ~client:"b" ~sleep:(fun _ -> ())
             ~timeout:10.0 [ "X" ])
  in
  check_ok "a eventually wins"
    (Lock_table.acquire_wait lt ~client:"a" ~sleep:a_sleep ~timeout:10.0 [ "Y" ]);
  (match !b_result with
  | Some (Error (Seed_error.Deadlock { victim; cycle })) ->
    Alcotest.(check string) "victim is the closer" "b" victim;
    Alcotest.(check (list string)) "cycle path" [ "b"; "a"; "b" ] cycle
  | _ -> Alcotest.fail "expected b to be aborted as deadlock victim");
  Alcotest.(check (list string)) "victim's locks released" []
    (Lock_table.held_by lt ~client:"b");
  Alcotest.(check (list string)) "survivor holds both" [ "X"; "Y" ]
    (Lock_table.held_by lt ~client:"a")

let test_server_checkout_wait () =
  let clock = ref 0.0 in
  let s = Server.create (schema ()) in
  let db = Server.database s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  check_ok "alice takes" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  (* names must exist even on the waiting path *)
  check_err "ghost refused"
    (function Seed_error.Unknown_object _ -> true | _ -> false)
    (Server.checkout_wait s ~client:"bob" ~sleep:(fun _ -> ()) ~timeout:1.0
       ~names:[ "Ghost" ] ());
  let sleeps = ref 0 in
  let sleep d =
    incr sleeps;
    clock := !clock +. d;
    if !sleeps = 1 then ignore (Server.release s ~client:"alice")
  in
  check_ok "bob blocks then wins"
    (Server.checkout_wait s ~client:"bob"
       ~now:(fun () -> !clock)
       ~sleep ~timeout:60.0 ~names:[ "Alarms" ] ());
  Alcotest.(check (list string)) "bob holds" [ "Alarms" ]
    (Server.locked_by s ~client:"bob")

(* --- bulk release, occupancy ------------------------------------------ *)

let test_release_session_bulk () =
  let s = Server.create (schema ()) in
  let db = Server.database s in
  List.iter
    (fun n -> ignore (ok (DB.create_object db ~cls:"Data" ~name:n ())))
    [ "A"; "B"; "C" ];
  check_ok "alice holds"
    (Server.checkout s ~client:"alice" ~names:[ "B"; "A" ]);
  check_ok "bob holds" (Server.checkout s ~client:"bob" ~names:[ "C" ]);
  Alcotest.(check (list string)) "freed, sorted" [ "A"; "B" ]
    (Server.release s ~client:"alice");
  Alcotest.(check (list string)) "alice empty" []
    (Server.locked_by s ~client:"alice");
  Alcotest.(check (list string)) "bob untouched" [ "C" ]
    (Server.locked_by s ~client:"bob");
  Alcotest.(check (list string)) "idempotent" []
    (Server.release s ~client:"alice")

let test_lock_stats_occupancy () =
  let s = Server.create (schema ()) in
  let db = Server.database s in
  List.iter
    (fun n -> ignore (ok (DB.create_object db ~cls:"Data" ~name:n ())))
    [ "X"; "Y"; "Z" ];
  check_ok "a holds" (Server.checkout s ~client:"a" ~names:[ "X" ]);
  check_ok "b holds" (Server.checkout s ~client:"b" ~names:[ "Y"; "Z" ]);
  let st = Server.lock_stats s in
  Alcotest.(check int) "held" 3 st.Lock_table.locks_held;
  Alcotest.(check int) "waiters" 0 st.Lock_table.waiters;
  ignore (Server.release s ~client:"b");
  Alcotest.(check int) "held after release" 1
    (Server.lock_stats s).Lock_table.locks_held

let test_versions_server_controlled () =
  let s = with_seeded_server () in
  let v1 = ok (Server.create_version s) in
  Alcotest.(check string) "1.0" "1.0" (Version_id.to_string v1);
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_ok "edit"
    (Server.checkin s ~client:"alice"
       [ Protocol.Reclassify_obj { name = "Alarms"; to_ = "OutputData" } ]);
  let v2 = ok (Server.create_version s) in
  Alcotest.(check string) "2.0" "2.0" (Version_id.to_string v2);
  (* the old version is still retrievable through the server's database *)
  let db = Server.database s in
  ok (DB.select_version db (Some v1));
  Alcotest.(check (option string)) "old state" (Some "Data")
    (DB.class_of db (Option.get (DB.find_object db "Alarms")));
  ok (DB.select_version db None)

let test_pattern_ops_through_protocol () =
  let s = Server.create (schema ()) in
  let db = Server.database s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Instance" ()) in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Template"; "Instance" ]);
  check_ok "inherit via protocol"
    (Server.checkin s ~client:"alice"
       [ Protocol.Inherit { pattern = "Template"; inheritor = "Instance" } ]);
  let p = Option.get (DB.find_pattern db "Template") in
  Alcotest.(check int) "inherited" 1 (List.length (Seed_core.View.inheritors_of (DB.view db) p))

(* Set_text reads its text for the content type of its place, as the
   command line's [set] does *)
let set_text path text = Protocol.Set_text { path; text }

let value_at db path =
  Option.bind (DB.resolve db path) (DB.get_value db)

let test_set_text_typed_by_place () =
  let s = with_seeded_server () in
  let db = Server.database s in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_ok "checkin"
    (Server.checkin s ~client:"alice"
       [
         set_text "Alarms.Description" "42";
         set_text "Alarms.Revised" "1986-02-05";
       ]);
  Alcotest.(check bool) "STRING verbatim" true
    (value_at db "Alarms.Description" = Some (Seed_schema.Value.String "42"));
  Alcotest.(check bool) "DATE literal" true
    (value_at db "Alarms.Revised" = Some (Seed_schema.Value.date 1986 2 5));
  (* an existing place is overwritten, read again for its type *)
  check_ok "checkout again"
    (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_ok "overwrite"
    (Server.checkin s ~client:"alice" [ set_text "Alarms.Revised" "1986-03-01" ]);
  Alcotest.(check bool) "DATE overwritten" true
    (value_at db "Alarms.Revised" = Some (Seed_schema.Value.date 1986 3 1))

let test_set_text_bad_literal () =
  let s = with_seeded_server () in
  let db = Server.database s in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_err "impossible date"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (Server.checkin s ~client:"alice"
       [
         set_text "Alarms.Description" "kept?";
         set_text "Alarms.Revised" "1986-02-31";
       ]);
  Alcotest.(check bool) "nothing applied" true
    (DB.resolve db "Alarms.Description" = None
    && DB.resolve db "Alarms.Revised" = None);
  Alcotest.(check (list string)) "locks kept" [ "Alarms" ]
    (Server.locked_by s ~client:"alice")

let test_set_text_creates_sub_in_batch () =
  let s = with_seeded_server () in
  let db = Server.database s in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_err "later op fails" is_duplicate
    (Server.checkin s ~client:"alice"
       [
         set_text "Alarms.Description" "created";
         Protocol.Create_object { cls = "Data"; name = "Handler"; pattern = false };
       ]);
  Alcotest.(check bool) "created sub-object rolled back" true
    (DB.resolve db "Alarms.Description" = None);
  check_ok "retry"
    (Server.checkin s ~client:"alice" [ set_text "Alarms.Description" "created" ]);
  Alcotest.(check bool) "created" true
    (value_at db "Alarms.Description"
    = Some (Seed_schema.Value.String "created"))

let test_set_text_needs_root_lock () =
  let s = with_seeded_server () in
  let db = Server.database s in
  check_ok "bob holds Alarms"
    (Server.checkout s ~client:"bob" ~names:[ "Alarms" ]);
  check_ok "alice holds Handler"
    (Server.checkout s ~client:"alice" ~names:[ "Handler" ]);
  check_err "path's root not locked"
    (function Seed_error.Locked _ -> true | _ -> false)
    (Server.checkin s ~client:"alice" [ set_text "Alarms.Description" "x" ]);
  Alcotest.(check bool) "nothing applied" true
    (DB.resolve db "Alarms.Description" = None);
  Alcotest.(check (list string)) "touches the root" [ "Alarms" ]
    (touches (set_text "Alarms.Description" "x"))

(* a path names one place: a component without an index names only an
   unindexed sub-object, so a multi-valued role is set by index *)
let test_set_text_unindexed_multi_refused () =
  let s = with_seeded_server () in
  let db = Server.database s in
  let alarms = Option.get (DB.find_object db "Alarms") in
  let _ =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Keywords"
         ~value:(Seed_schema.Value.String "kw1") ())
  in
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
  check_err "ambiguous place"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (Server.checkin s ~client:"alice" [ set_text "Alarms.Keywords" "kw2" ]);
  Alcotest.(check bool) "Keywords[0] kept" true
    (value_at db "Alarms.Keywords[0]" = Some (Seed_schema.Value.String "kw1"));
  Alcotest.(check (option Alcotest.reject)) "nothing added" None
    (DB.resolve db "Alarms.Keywords[1]")

let test_set_text_indexed_place () =
  let s = with_seeded_server () in
  let db = Server.database s in
  let set () =
    check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Alarms" ]);
    check_ok "checkin"
      (Server.checkin s ~client:"alice" [ set_text "Alarms.Keywords[2]" "kw" ])
  in
  set ();
  Alcotest.(check bool) "created at its index" true
    (value_at db "Alarms.Keywords[2]" = Some (Seed_schema.Value.String "kw"));
  set ();
  Alcotest.(check int) "set twice, one place" 1
    (List.length (DB.children db (Option.get (DB.find_object db "Alarms"))))

let test_ops_resolve_in_current_state () =
  (* updates apply to the current version: a version selected for
     retrieval, in which Late does not exist, changes no resolution *)
  let s = with_seeded_server () in
  let db = Server.database s in
  let v = ok (DB.create_version db) in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Late" ()) in
  check_ok "select" (DB.select_version db (Some v));
  check_ok "checkout" (Server.checkout s ~client:"alice" ~names:[ "Late" ]);
  check_ok "checkin"
    (Server.checkin s ~client:"alice"
       [
         set_text "Late.Description" "now";
         Protocol.Reclassify_obj { name = "Late"; to_ = "InputData" };
       ]);
  check_ok "back to current" (DB.select_version db None);
  Alcotest.(check (option string)) "reclassified" (Some "InputData")
    (DB.class_of db (Option.get (DB.find_object db "Late")));
  Alcotest.(check bool) "set" true
    (value_at db "Late.Description" = Some (Seed_schema.Value.String "now"))

(* ------------------------------------------------------------------ *)
(* Durable check-ins: visible only once durable                         *)
(* ------------------------------------------------------------------ *)

module Persist = Seed_core.Persist
module View = Seed_core.View
module Faulty = Seed_storage.Faulty_io

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_server_%d_%d" (Unix.getpid ()) !counter)

let create_x = [ Protocol.Create_object { cls = "Data"; name = "X"; pattern = false } ]

let visible srv = Option.is_some (View.find_object (Server.snapshot srv) "X")

(* the live objects named X a fresh open of [dir] (verify on) finds *)
let live_x dir =
  let s = ok (Persist.Session.open_ ~dir ()) in
  let v = DB.snapshot_view (Persist.Session.db s) in
  let n =
    List.length (List.filter (fun it -> View.full_name v it = Some "X") (View.all_objects v))
  in
  Persist.Session.close s;
  n

(* a server over a fresh durable store: its open writes and fsyncs the
   initial meta record, so the first check-in's write and fsync are
   number 1 of each *)
let durable_server ?io () =
  let dir = tmp_dir () in
  let session =
    Persist.Session.open_ ~dir ~schema:(schema ()) ?io ~sync:`Always_fsync ()
  in
  Result.map (fun session -> (dir, session, Server.of_session session)) session

(* A check-in whose flush fails is not published: the snapshot and the
   database do not hold it, the retry succeeds, and a reopen holds
   exactly what was acknowledged. *)
let test_failed_flush_invisible fault () =
  let dir, session, srv = ok (durable_server ~io:(Faulty.io (fault ())) ()) in
  check_ok "checkout" (Server.checkout srv ~client:"a" ~names:[]);
  check_err "the flush fails" (function Seed_error.Io_error _ -> true | _ -> false)
    (Server.checkin srv ~client:"a" create_x);
  Alcotest.(check bool) "not in the snapshot" false (visible srv);
  Alcotest.(check bool) "not in the database" true
    (DB.find_object (Server.database srv) "X" = None);
  check_ok "the retry" (Server.checkin srv ~client:"a" create_x);
  Alcotest.(check bool) "in the snapshot once durable" true (visible srv);
  Persist.Session.close session;
  Alcotest.(check int) "one live X after reopen" 1 (live_x dir)

(* Every I/O step of one served check-in, failed by a crash (whole or
   torn), ENOSPC or a failing fsync: an acknowledged check-in is visible
   and survives a reopen; a failed one is invisible, also after a
   reopen, and its retry succeeds; a crash publishes nothing and leaves
   at most one X behind. *)
let test_checkin_fault_sweep () =
  let calibrate = Faulty.create () in
  let _, session, srv = ok (durable_server ~io:(Faulty.io calibrate) ()) in
  let first = Faulty.steps calibrate in
  check_ok "calibration" (Server.checkin srv ~client:"a" create_x);
  let last = Faulty.steps calibrate in
  Persist.Session.close session;
  let steps = List.init (last - first) (fun i -> first + i) in
  let faults =
    List.concat_map
      (fun k ->
        [
          (Printf.sprintf "crash at step %d" k, fun () -> Faulty.create ~crash_at:k ());
          ( Printf.sprintf "torn crash at step %d" k,
            fun () -> Faulty.create ~crash_at:k ~torn:true () );
        ])
      steps
    @ List.concat_map
        (fun k ->
          [
            (Printf.sprintf "ENOSPC on write %d" k, fun () -> Faulty.create ~enospc_write:k ());
            (Printf.sprintf "EIO on fsync %d" k, fun () -> Faulty.create ~fail_fsync:k ());
          ])
        [ 1; 2; 3 ]
  in
  List.iter
    (fun (what, fault) ->
      let dir, session, srv = ok (durable_server ~io:(Faulty.io (fault ())) ()) in
      let outcome =
        try `Done (Server.checkin srv ~client:"a" create_x) with Faulty.Crash _ -> `Crashed
      in
      let check_visible expected =
        if visible srv <> expected then
          Alcotest.failf "%s: X %s the snapshot" what
            (if expected then "missing from" else "published in")
      in
      let expect_live n =
        Persist.Session.close session;
        let got = live_x dir in
        if got <> n then Alcotest.failf "%s: %d live X after reopen, want %d" what got n
      in
      match outcome with
      | `Done (Ok ()) ->
        check_visible true;
        expect_live 1
      | `Done (Error _) ->
        check_visible false;
        (match Server.checkin srv ~client:"a" create_x with
        | Ok () -> check_visible true
        | Error e -> Alcotest.failf "%s: retry: %s" what (Seed_error.to_string e));
        expect_live 1
      | `Crashed ->
        check_visible false;
        Persist.Session.close session;
        if live_x dir > 1 then Alcotest.failf "%s: more than one X after reopen" what)
    faults

(* Words allocated by the write path, counted as the bench harness
   counts them (minor words per call): a check-in through
   [Server.checkin] on a small durable store, the lock cover, the
   apply, the flush's one frame and the commit queue included. A
   per-record encode buffer, or an attached-procedure chain rebuilt on
   every update, each costs more than the margin left above what the
   write path takes. *)
let checkin_words srv ~ops_of n =
  let total = ref 0. in
  for i = 0 to n - 1 do
    let names, ops = ops_of i in
    check_ok "checkout" (Server.checkout srv ~client:"a" ~names);
    let w0 = Gc.minor_words () in
    let r = Server.checkin srv ~client:"a" ops in
    total := !total +. (Gc.minor_words () -. w0);
    check_ok "checkin" r
  done;
  !total /. float n

let test_checkin_allocation () =
  let docs = 100 in
  let dir = tmp_dir () in
  let session = ok (Persist.Session.open_ ~dir ~schema:(schema ()) ()) in
  let db = Persist.Session.db session in
  let names = Array.init docs (Printf.sprintf "Doc%03d") in
  Array.iter
    (fun name ->
      let d = ok (DB.create_object db ~cls:"Data" ~name ()) in
      ignore
        (ok (DB.create_sub_object db ~parent:d ~role:"Description" ~value:(Seed_schema.Value.String "first") ())))
    names;
  check_ok "flush" (Persist.Session.flush session);
  let srv = Server.of_session session in
  let text i = Some (Seed_schema.Value.String (Printf.sprintf "revision %04d" i)) in
  let values = Array.init (2 * docs) text in
  let set round i =
    let d = names.(i) in
    ([ d ], [ Protocol.Set_value { path = d ^ ".Description"; value = values.((round * docs) + i) } ])
  in
  let keyword i =
    let d = names.(i) in
    ([ d ], [ Protocol.Create_sub { owner = d; role = "Keywords"; index = None; value = values.(i) } ])
  in
  (* the first round warms the write path up *)
  ignore (checkin_words srv ~ops_of:(set 0) docs);
  let set_words = checkin_words srv ~ops_of:(set 1) docs in
  let sub_words = checkin_words srv ~ops_of:keyword docs in
  Persist.Session.close session;
  let under what ~bound w =
    if w >= float bound then
      Alcotest.failf "a %s check-in allocated %.0f words (bound %d)" what w bound
  in
  (* 523 and 678 words when the bounds were set, 527 and 682 since
     each overlay write reports whether its id was new through a ref *)
  under "Set_value" ~bound:549 set_words;
  under "Create_sub" ~bound:708 sub_words

let () =
  Alcotest.run "server"
    [
      ( "locks",
        [
          tc "checkout" test_checkout_locks;
          tc "existence" test_checkout_requires_existing;
          tc "checkin needs locks" test_checkin_requires_locks;
        ] );
      ( "transactions",
        [
          tc "apply and release" test_checkin_applies_and_releases;
          tc "atomic rollback" test_checkin_is_atomic;
          tc "mixed-batch rollback" test_checkin_rollback_mixed_batch;
          tc "rename collision locking" test_rename_collision_needs_target_lock;
          tc "touches" test_touches_roots_and_rename;
          tc "disjoint clients" test_two_clients_disjoint_edits;
        ] );
      ( "set text",
        [
          tc "typed by place" test_set_text_typed_by_place;
          tc "bad literal refused" test_set_text_bad_literal;
          tc "sub-object created in the batch" test_set_text_creates_sub_in_batch;
          tc "root lock" test_set_text_needs_root_lock;
          tc "unindexed multi-valued role refused"
            test_set_text_unindexed_multi_refused;
          tc "indexed place" test_set_text_indexed_place;
          tc "current state" test_ops_resolve_in_current_state;
        ] );
      ( "sessions",
        [
          tc "bulk release" test_release_session_bulk;
          tc "occupancy stats" test_lock_stats_occupancy;
        ] );
      ( "blocking checkout",
        [
          tc "wait then acquire" test_acquire_wait_succeeds_after_release;
          tc "timeout" test_acquire_wait_times_out;
          tc "deadlock broken" test_deadlock_detected_and_broken;
          tc "server checkout_wait" test_server_checkout_wait;
        ] );
      ( "clients",
        [ tc "stage and commit" test_client_api; tc "abort" test_client_abort ] );
      ( "server features",
        [
          tc "global versions" test_versions_server_controlled;
          tc "patterns via protocol" test_pattern_ops_through_protocol;
        ] );
      ( "durable check-in",
        [
          tc "ENOSPC: invisible, retry succeeds"
            (test_failed_flush_invisible (fun () -> Faulty.create ~enospc_write:1 ()));
          tc "failed fsync: invisible, retry succeeds"
            (test_failed_flush_invisible (fun () -> Faulty.create ~fail_fsync:1 ()));
          tc "fault sweep over one check-in" test_checkin_fault_sweep;
          tc "write-path allocation" test_checkin_allocation;
        ] );
    ]
