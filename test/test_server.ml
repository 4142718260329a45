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
    (DB.resolve db "Alarms.Keywords");
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

let test_touches_roots_and_rename () =
  let t op = List.sort String.compare (Protocol.touches op) in
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
  Alcotest.(check int) "staged" 2 (List.length (Client.staged alice));
  check_ok "commit" (Client.commit alice);
  Alcotest.(check int) "queue cleared" 0 (List.length (Client.staged alice));
  Alcotest.(check bool) "visible" true (Client.retrieve alice "Alarms" <> None)

let test_client_abort () =
  let s = with_seeded_server () in
  let alice = Client.connect s ~name:"alice" in
  check_ok "checkout" (Client.checkout alice [ "Alarms" ]);
  Client.stage alice (Protocol.Delete { path = "Alarms" });
  Client.abort alice;
  Alcotest.(check int) "queue dropped" 0 (List.length (Client.staged alice));
  Alcotest.(check (list string)) "locks released" []
    (Server.locked_by s ~client:"alice");
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
  Alcotest.(check (option string)) "b holds now" (Some "b")
    (Lock_table.holder lt "X");
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
  Alcotest.(check int) "inherited" 1 (List.length (DB.inheritors db p))

let test_protocol_printing () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "printable" true
        (String.length (Fmt.str "%a" Protocol.pp op) > 0))
    [
      Protocol.Create_object { cls = "Data"; name = "X"; pattern = true };
      Protocol.Create_sub { owner = "X"; role = "r"; index = Some 1; value = None };
      Protocol.Create_rel { assoc = "A"; endpoints = [ "X"; "Y" ]; pattern = false };
      Protocol.Set_value { path = "X.r"; value = None };
      Protocol.Rename { name = "X"; new_name = "Y" };
      Protocol.Reclassify_obj { name = "X"; to_ = "Data" };
      Protocol.Reclassify_rel { assoc = "A"; endpoints = [ "X"; "Y" ]; to_ = "B" };
      Protocol.Delete { path = "X" };
      Protocol.Inherit { pattern = "P"; inheritor = "X" };
    ]

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
          tc "protocol printing" test_protocol_printing;
        ] );
    ]
