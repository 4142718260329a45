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
    match View.state v i with
    | Seed_core.Item.Obj { value = Some x; _ } -> Seed_schema.Value.to_string x
    | _ -> "-"
  in
  let sub_item v name =
    Option.get (View.resolve_name v (name ^ ".Description"))
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

(* --- the item table: base array plus overlay ------------------------ *)

(* A snapshot pinned before the item table folds its overlay into a new
   base keeps reading its own items. The overlay folds once it holds
   over 64 items (and 1/16 of the base), so the 300 writes after the
   snapshot fold it several times. *)
let test_snapshot_pinned_across_fold () =
  let db = fresh_db () in
  let docs =
    List.init 100 (fun i ->
        let id = ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "D%d" i) ()) in
        ok
          (DB.create_sub_object db ~parent:id ~role:"Description"
             ~value:(Seed_schema.Value.String (Printf.sprintf "old %d" i)) ()))
  in
  let snap = DB.snapshot_view db in
  List.iteri
    (fun i d ->
      check_ok "set_value"
        (DB.set_value db d (Some (Seed_schema.Value.String (Printf.sprintf "new %d" i)))))
    docs;
  for i = 0 to 199 do
    ignore (ok (DB.create_object db ~cls:"Action" ~name:(Printf.sprintf "A%d" i) ()))
  done;
  let value v id =
    match View.state_of_id v id with
    | Seed_core.Item.Obj { value = Some x; _ } -> Seed_schema.Value.to_string x
    | _ -> "-"
  in
  List.iteri
    (fun i d ->
      Alcotest.(check string) "the snapshot reads its own value" (Printf.sprintf {|"old %d"|} i)
        (value snap d);
      Alcotest.(check string) "the live view reads the new value" (Printf.sprintf {|"new %d"|} i)
        (value (DB.view db) d))
    docs;
  Alcotest.(check bool) "the snapshot does not see the later objects" true
    (View.resolve_name snap "A0" = None && View.resolve_name snap "A199" = None);
  Alcotest.(check int) "the snapshot's items" 200 (Db_state.item_count (View.db snap));
  Alcotest.(check int) "the live items" 400 (Db_state.item_count (DB.raw db))

(* A transaction that folds the item table and then fails leaves the
   table as it was: the rollback swaps the whole root back. *)
let test_rollback_of_folding_transaction () =
  let db = fresh_db () in
  let keep = ok (DB.create_object db ~cls:"Data" ~name:"Keep" ()) in
  let before = Db_state.item_count (DB.raw db) in
  let r =
    DB.with_transaction db (fun () ->
        for i = 0 to 199 do
          ignore (ok (DB.create_object db ~cls:"Action" ~name:(Printf.sprintf "T%d" i) ()))
        done;
        check_ok "rename" (DB.rename_object db keep "Gone");
        Seed_error.fail (Seed_error.Invalid_operation "abort"))
  in
  Alcotest.(check bool) "transaction failed" true (Result.is_error r);
  Alcotest.(check int) "item count restored" before (Db_state.item_count (DB.raw db));
  Alcotest.(check bool) "no trace of the aborted objects" true
    (DB.find_object db "T0" = None && DB.find_object db "T199" = None);
  Alcotest.(check bool) "the rename is undone" true
    (DB.find_object db "Keep" = Some keep && DB.find_object db "Gone" = None);
  (* the generator moved on: the next id is past the burned ones *)
  let next = ok (DB.create_object db ~cls:"Action" ~name:"After" ()) in
  Alcotest.(check bool) "a burned id is not reused" true (Ident.to_int next > before + 200);
  Alcotest.(check bool) "the item after the gap is found" true
    (DB.find_object db "After" = Some next)

(* [Item_table] against the stdlib map: a table built from ascending ids
   with gaps, then adds of new ids (with gaps, as rolled-back
   transactions burn ids), of ids in a gap, and rewrites of present
   ones, [map]s, savepoints and rollbacks to them. After every step, and again for
   every table kept along the way at the end, the count, the iteration
   and fold order and a lookup of every id around the keys (0, negative
   and extreme ids included) agree, by physical equality of the items. *)
module Tbl = Seed_core.Item_table
module Item = Seed_core.Item
module Ref = Map.Make (Ident)

type table_op = New of int | Fill of int | Rewrite of int | Save | Rollback | Map_odd

let table_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (6, map (fun gap -> New gap) (int_range 1 3));
      (1, map (fun k -> Fill k) nat);
      (6, map (fun k -> Rewrite k) nat);
      (1, pure Save);
      (1, pure Rollback);
      (1, pure Map_odd);
    ]

let table_case_gen =
  QCheck2.Gen.(pair (list_size (int_range 0 300) (int_range 1 3)) (list_size (int_range 0 400) table_op_gen))

let item_of id tag =
  Item.make (Ident.of_int id) Item.Independent
    (Item.Obj
       { name = Some (string_of_int tag); cls = "C"; value = None; pattern = false;
         inherits = []; deleted = false })

let table_agrees t m =
  let listed = List.rev (Tbl.fold (fun acc it -> it :: acc) [] t) in
  let iterated = ref [] in
  Tbl.iter (fun it -> iterated := it :: !iterated) t;
  let expected = List.map snd (Ref.bindings m) in
  let top = match Ref.max_binding_opt m with Some (id, _) -> Ident.to_int id | None -> 0 in
  let probes = [ 0; -1; min_int; max_int; max_int - 1 ] @ List.init (top + 3) Fun.id in
  Tbl.count t = Ref.cardinal m
  && List.equal ( == ) listed expected
  && List.equal ( == ) (List.rev !iterated) expected
  && List.for_all
       (fun i ->
         let id = Ident.of_int i in
         match (Tbl.find t id, Ref.find_opt id m) with
         | Some a, Some b -> a == b
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       probes

let prop_table_model (gaps, ops) =
  let b = Tbl.builder (List.length gaps) in
  let last = ref 0 and tag = ref 0 in
  let fresh id =
    incr tag;
    item_of id !tag
  in
  let m =
    List.fold_left
      (fun m gap ->
        last := !last + gap;
        let it = fresh !last in
        Tbl.push b it;
        Ref.add it.Item.id it m)
      Ref.empty gaps
  in
  let t = Tbl.build b in
  let kept = ref [ (t, m) ] and saved = ref [] in
  let step (t, m) = function
    | New gap ->
      last := !last + gap;
      let it = fresh !last in
      (Tbl.add t it, Ref.add it.Item.id it m)
    | Fill k -> (
      match List.filter (fun i -> not (Ref.mem (Ident.of_int i) m)) (List.init !last succ) with
      | [] -> (t, m)
      | gaps ->
        let it = fresh (List.nth gaps (k mod List.length gaps)) in
        (Tbl.add t it, Ref.add it.Item.id it m))
    | Rewrite k -> (
      match Ref.bindings m with
      | [] -> (t, m)
      | l ->
        let id, _ = List.nth l (k mod List.length l) in
        let it = fresh (Ident.to_int id) in
        (Tbl.add t it, Ref.add id it m))
    | Save ->
      saved := (t, m) :: !saved;
      (t, m)
    | Rollback -> (
      match !saved with
      | p :: rest ->
        saved := rest;
        p
      | [] -> (t, m))
    | Map_odd ->
      let f (it : Item.t) = if Ident.to_int it.Item.id land 1 = 1 then fresh (Ident.to_int it.Item.id) else it in
      (* [f] makes a fresh item per call, so the model takes the table's *)
      let t' = Tbl.map f t in
      let m' = Ref.mapi (fun id it -> Option.value (Tbl.find t' id) ~default:it) m in
      (t', m')
  in
  let ok_so_far =
    List.for_all
      (fun op ->
        let tm = step (List.hd !kept) op in
        kept := tm :: !kept;
        table_agrees (fst tm) (snd tm))
      ops
  in
  ok_so_far && List.for_all (fun (t, m) -> table_agrees t m) !kept

let test_table_builder_refusals () =
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  let b = Tbl.builder 2 in
  Tbl.push b (item_of 3 0);
  raises "a repeated id" (fun () -> Tbl.push b (item_of 3 1));
  raises "a lower id" (fun () -> Tbl.push b (item_of 2 1));
  Tbl.push b (item_of 7 1);
  raises "past the capacity" (fun () -> Tbl.push b (item_of 8 2));
  let t = Tbl.build b in
  raises "after the build" (fun () -> Tbl.push b (item_of 9 3));
  Alcotest.(check int) "the built table" 2 (Tbl.count t);
  let short = Tbl.builder 5 in
  Tbl.push short (item_of 1 0);
  Alcotest.(check int) "a builder filled below its capacity" 1 (Tbl.count (Tbl.build short))

(* A lookup boxes nothing: an item written since the base was built,
   through [Item_table.get], and the children of a parent, through
   [Db_state.children_of]. Each is the median over repeated calls of the
   minor words of one call, so that a minor collection falling in one
   call does not count. *)
let median_words f =
  let w =
    Array.init 21 (fun _ ->
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (f ()));
        Gc.minor_words () -. w0)
  in
  Array.sort Float.compare w;
  w.(10)

let test_lookups_allocate_nothing () =
  let b = Tbl.builder 100 in
  for i = 1 to 100 do
    Tbl.push b (item_of i 0)
  done;
  let written = List.map (fun i -> item_of i 1) [ 50; 110; 120 ] in
  let t = List.fold_left Tbl.add (Tbl.build b) written in
  let hit (it : Item.t) =
    Alcotest.(check bool) "an overlay hit" true (Tbl.get t it.Item.id == it);
    Alcotest.(check (float 0.)) "words of an overlay hit" 0. (median_words (fun () -> Tbl.get t it.Item.id))
  in
  List.iter hit written;
  (match Tbl.add t Item.none with
   | _ -> Alcotest.fail "Item.none stored"
   | exception Invalid_argument _ -> ());
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"Doc" ()) in
  ignore (ok (DB.create_sub_object db ~parent:d ~role:"Description" ~value:(Seed_schema.Value.String "x") ()));
  let x = View.extents (DB.view db) in
  Alcotest.(check int) "one child" 1 (Ident.Set.cardinal (Db_state.children_of x d));
  Alcotest.(check (float 0.)) "words of a children_of hit" 0. (median_words (fun () -> Db_state.children_of x d))

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
      ( "item table",
        [
          tc "snapshot pinned across a fold" test_snapshot_pinned_across_fold;
          tc "rollback of a folding transaction" test_rollback_of_folding_transaction;
          tc "builder refusals" test_table_builder_refusals;
          tc "lookups allocate nothing" test_lookups_allocate_nothing;
          qcheck_case ~count:120 "Item_table agrees with Ident.Map" table_case_gen prop_table_model;
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
