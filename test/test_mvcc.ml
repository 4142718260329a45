(* MVCC semantics: copy-on-write roots, O(1) snapshots, root-swap
   rollback, the publication counters, and the planner's explain
   output. The multi-domain equivalence sweep lives in mvcc_stress.ml;
   these are the single-threaded semantic contracts. *)

open Seed_util
open Helpers
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module View = Seed_core.View
module Q = Seed_core.Query
module Server = Seed_server.Server

(* --- snapshot isolation ------------------------------------------- *)

let test_snapshot_isolation () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"Before" ()) in
  let snap = DB.snapshot_view db in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"After" ()) in
  Alcotest.(check bool)
    "snapshot sees the object created before it" true
    (View.resolve_name snap "Before" <> None);
  Alcotest.(check bool)
    "snapshot does not see the later commit" true
    (View.resolve_name snap "After" = None);
  Alcotest.(check bool)
    "the live view sees both" true
    (View.resolve_name (DB.view db) "After" <> None)

let test_snapshot_survives_mutation () =
  let db = fresh_db () in
  let id = ok (DB.create_object db ~cls:"Data" ~name:"Doc" ()) in
  let sub =
    ok
      (DB.create_sub_object db ~parent:id ~role:"Description"
         ~value:(Seed_schema.Value.String "old") ())
  in
  let snap = DB.snapshot_view db in
  check_ok "set_value"
    (DB.set_value db sub (Some (Seed_schema.Value.String "new")));
  check_ok "rename" (DB.rename_object db id "Doc2");
  let value v i =
    match View.obj_state v i with
    | Some { Seed_core.Item.value = Some x; _ } ->
      Seed_schema.Value.to_string x
    | _ -> "-"
  in
  let sub_item v name =
    let it = Option.get (View.resolve_name v name) in
    Option.get (View.child v it.Seed_core.Item.id ~role:"Description" ())
  in
  Alcotest.(check string)
    "snapshot pins the old value" {|"old"|}
    (value snap (sub_item snap "Doc"));
  Alcotest.(check string)
    "live view has the new value" {|"new"|}
    (value (DB.view db) (sub_item (DB.view db) "Doc2"));
  Alcotest.(check bool)
    "snapshot still resolves the old name" true
    (View.resolve_name snap "Doc" <> None)

(* --- transactions: no mid-publish, O(1) rollback -------------------- *)

let test_txn_no_mid_publish () =
  let db = fresh_db () in
  let observed = ref None in
  let r =
    DB.with_transaction db (fun () ->
        let _ = ok (DB.create_object db ~cls:"Action" ~name:"Mid" ()) in
        (* a snapshot grabbed while the transaction is open must show
           the pre-transaction state: nothing is published mid-flight *)
        observed := Some (DB.snapshot_view db);
        Ok ())
  in
  check_ok "transaction" r;
  Alcotest.(check bool)
    "mid-transaction snapshot did not see the uncommitted object" true
    (View.resolve_name (Option.get !observed) "Mid" = None);
  Alcotest.(check bool)
    "after commit the object is published" true
    (View.resolve_name (DB.snapshot_view db) "Mid" <> None)

let test_txn_rollback_is_root_swap () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"Keep" ()) in
  let before_items = DB.object_count db in
  let before_commits = (DB.stats db).DB.st_commits in
  let r =
    DB.with_transaction db (fun () ->
        let _ = ok (DB.create_object db ~cls:"Action" ~name:"Drop1" ()) in
        let _ = ok (DB.create_object db ~cls:"Data" ~name:"Drop2" ()) in
        Seed_error.fail (Seed_error.Invalid_operation "abort"))
  in
  Alcotest.(check bool) "transaction failed" true (Result.is_error r);
  Alcotest.(check int)
    "object count restored" before_items (DB.object_count db);
  Alcotest.(check bool)
    "no trace of the aborted objects" true
    (DB.find_object db "Drop1" = None && DB.find_object db "Drop2" = None);
  Alcotest.(check bool)
    "the pre-transaction object survives" true
    (DB.find_object db "Keep" <> None);
  Alcotest.(check int)
    "nothing was published by the aborted transaction" before_commits
    (DB.stats db).DB.st_commits

(* --- counters ------------------------------------------------------ *)

let test_counters () =
  let db = fresh_db () in
  let s0 = DB.stats db in
  let _ = DB.snapshot_view db in
  let _ = DB.snapshot_view db in
  let s1 = DB.stats db in
  Alcotest.(check int)
    "two snapshots grabbed" (s0.DB.st_snapshots + 2) s1.DB.st_snapshots;
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let s2 = DB.stats db in
  Alcotest.(check bool)
    "a commit publishes a root" true
    (s2.DB.st_commits > s1.DB.st_commits);
  (* version-extent cache counters count per view: the first view of a
     version misses, the second hits *)
  let v = ok (DB.create_version db) in
  let _ = Q.select (View.at (DB.raw db) v) (Q.is_a "Thing") in
  let s3 = DB.stats db in
  Alcotest.(check bool)
    "first version view misses the cache" true
    (s3.DB.st_vc_misses > s2.DB.st_vc_misses);
  let _ = Q.select (View.at (DB.raw db) v) (Q.is_a "Thing") in
  let s4 = DB.stats db in
  Alcotest.(check bool)
    "second version view hits the cache" true
    (s4.DB.st_vc_hits > s3.DB.st_vc_hits);
  Alcotest.(check bool) "evictions counter exposed" true
    (s4.DB.st_vc_evictions >= 0)

(* --- explain ------------------------------------------------------- *)

let test_explain_indexed () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"A1" ()) in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"A2" ()) in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"D1" ()) in
  let v = DB.view db in
  (match Q.explain v (Q.in_class "Action") with
  | Q.Indexed { classes; est_candidates; _ } ->
    Alcotest.(check (list string)) "class extents" [ "Action" ] classes;
    Alcotest.(check int) "estimated candidates" 2 est_candidates
  | Q.Scan _ -> Alcotest.fail "in_class must be indexed");
  (match Q.explain v Q.(name_is "D1" ||| in_class "Action") with
  | Q.Indexed { names; est_candidates; _ } ->
    Alcotest.(check (list string)) "name lookups" [ "D1" ] names;
    Alcotest.(check int) "candidates = 2 actions + 1 name" 3 est_candidates
  | Q.Scan _ -> Alcotest.fail "name_is ||| in_class must be indexed")

let test_explain_scan () =
  let db = fresh_db () in
  let v = DB.view db in
  (match Q.explain v (Q.not_ (Q.in_class "Action")) with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "negation must scan");
  (match Q.explain v (Q.of_fun (fun _ _ -> true)) with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "opaque predicates must scan");
  (* a disjunction with one unbounded arm is unbounded as a whole *)
  match Q.explain v Q.(in_class "Action" ||| of_fun (fun _ _ -> true)) with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "disjunction with an opaque arm must scan"

(* --- server: lock-free read path ----------------------------------- *)

let test_server_snapshot_lock_free () =
  let srv = Server.create (fig3_schema ()) in
  let db = Server.database srv in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Spec" ()) in
  (* another client holds the only lock on the object *)
  check_ok "checkout" (Server.checkout srv ~client:"alice" ~names:[ "Spec" ]);
  (* the read path never consults the lock table: snapshots work while
     every lock is taken, and pin the state at grab time *)
  let snap = Server.snapshot srv in
  Alcotest.(check bool)
    "snapshot resolves the locked object" true
    (View.resolve_name snap "Spec" <> None);
  check_ok "checkin"
    (Server.checkin srv ~client:"alice"
       [ Seed_server.Protocol.Rename { name = "Spec"; new_name = "Spec2" } ]);
  Alcotest.(check bool)
    "the pinned snapshot still shows the pre-checkin name" true
    (View.resolve_name snap "Spec" <> None
    && View.resolve_name snap "Spec2" = None);
  Alcotest.(check bool)
    "a fresh snapshot shows the checked-in state" true
    (View.resolve_name (Server.snapshot srv) "Spec2" <> None)

let () =
  Alcotest.run "mvcc"
    [
      ( "snapshots",
        [
          tc "isolation" test_snapshot_isolation;
          tc "pinned values survive mutation" test_snapshot_survives_mutation;
        ] );
      ( "transactions",
        [
          tc "no mid-transaction publish" test_txn_no_mid_publish;
          tc "rollback is a root swap" test_txn_rollback_is_root_swap;
        ] );
      ("counters", [ tc "snapshot/commit/cache counters" test_counters ]);
      ( "explain",
        [
          tc "indexed plans" test_explain_indexed;
          tc "scan fallbacks" test_explain_scan;
        ] );
      ( "server",
        [ tc "snapshot is lock-free" test_server_snapshot_lock_free ] );
    ]
