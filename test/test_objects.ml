(* Object and relationship lifecycle against the Fig. 3 schema:
   creation, composed names, retrieval by name, values, deletion. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module View = Seed_core.View
module Item = Seed_core.Item

(* the item's own state is live in the retrieval view *)
let live db id = Item.state_live (View.state_of_id (DB.view db) id)

let test_create_and_find () =
  let db = fresh_db () in
  let id = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  Alcotest.(check (option string)) "class" (Some "Data") (DB.class_of db id);
  Alcotest.(check bool) "found" true (DB.find_object db "Alarms" = Some id);
  Alcotest.(check (option string)) "full name" (Some "Alarms") (DB.full_name db id);
  Alcotest.(check bool) "exists" true (live db id);
  Alcotest.(check int) "count" 1 (DB.object_count db)

let test_unknown_class () =
  let db = fresh_db () in
  check_err "unknown class"
    (function Seed_error.Unknown_class _ -> true | _ -> false)
    (DB.create_object db ~cls:"Nope" ~name:"X" ())

let test_subclass_not_creatable_directly () =
  let db = fresh_db () in
  check_err "sub-class"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_object db ~cls:"Data.Text" ~name:"X" ())

let test_duplicate_name_rejected () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  check_err "dup" is_duplicate (DB.create_object db ~cls:"Action" ~name:"Alarms" ())

let test_sub_object_composed_name () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let body =
    ok
      (DB.create_sub_object db ~parent:text ~role:"Body"
         ~value:(Value.String "Alarms are represented in an alarm display matrix")
         ())
  in
  let kw0 =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Keywords"
         ~value:(Value.String "Alarmhandling") ())
  in
  let kw1 =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Keywords"
         ~value:(Value.String "Display") ())
  in
  Alcotest.(check (option string)) "text name" (Some "Alarms.Text[0]")
    (DB.full_name db text);
  Alcotest.(check (option string)) "body name" (Some "Alarms.Text[0].Body")
    (DB.full_name db body);
  Alcotest.(check (option string)) "kw0" (Some "Alarms.Keywords[0]")
    (DB.full_name db kw0);
  Alcotest.(check (option string)) "kw1" (Some "Alarms.Keywords[1]")
    (DB.full_name db kw1);
  (* resolve goes the other way *)
  Alcotest.(check bool) "resolve body" true
    (DB.resolve db "Alarms.Text[0].Body" = Some body);
  Alcotest.(check bool) "resolve kw" true
    (DB.resolve db "Alarms.Keywords[1]" = Some kw1);
  Alcotest.(check (option Alcotest.reject)) "unresolved" None
    (DB.resolve db "Alarms.Text[0].Nope")

let test_single_role_has_no_index () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let d =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Description"
         ~value:(Value.String "the alarm store") ())
  in
  Alcotest.(check (option string)) "no index" (Some "Alarms.Description")
    (DB.full_name db d);
  check_err "explicit index refused"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_sub_object db ~parent:alarms ~role:"Revised" ~index:0 ())

let test_index_auto_assignment_fills_gaps () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let k0 = ok (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~value:(Value.String "a") ()) in
  let _k1 = ok (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~value:(Value.String "b") ()) in
  let k5 = ok (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~index:5 ~value:(Value.String "f") ()) in
  ok (DB.delete db k0);
  let k0' = ok (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~value:(Value.String "a2") ()) in
  Alcotest.(check (option string)) "fills gap" (Some "Alarms.Keywords[0]")
    (DB.full_name db k0');
  Alcotest.(check (option string)) "explicit kept" (Some "Alarms.Keywords[5]")
    (DB.full_name db k5);
  check_err "index collision" is_duplicate
    (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~index:5 ())

let test_values () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let d = ok (DB.create_sub_object db ~parent:alarms ~role:"Description" ()) in
  Alcotest.(check (option Alcotest.reject)) "undefined" None (DB.get_value db d);
  check_ok "set" (DB.set_value db d (Some (Value.String "desc")));
  Alcotest.(check bool) "read back" true
    (DB.get_value db d = Some (Value.String "desc"));
  check_ok "clear" (DB.set_value db d None);
  Alcotest.(check (option Alcotest.reject)) "cleared" None (DB.get_value db d)

(* The freshness rule: a handle reads the record it was fetched with.
   After an update of its item it is stale; the by-id readers see the
   update. *)
let test_stale_handle () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let d =
    ok (DB.create_sub_object db ~parent:alarms ~role:"Description" ~value:(Value.String "old") ())
  in
  let v = View.current (DB.raw db) in
  let handle = Option.get (Seed_core.Db_state.find_item (DB.raw db) d) in
  check_ok "set" (DB.set_value db d (Some (Value.String "new")));
  let value = function Item.Obj o -> o.value | Item.Rel _ | Item.Absent -> None in
  Alcotest.(check bool) "the handle reads the old value" true
    (value (View.state v handle) = Some (Value.String "old"));
  Alcotest.(check bool) "by id: the new value" true
    (value (View.state_of_id v d) = Some (Value.String "new"));
  Alcotest.(check bool) "Database.get_value: the new value" true
    (DB.get_value db d = Some (Value.String "new"))

let test_rename () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let _b = ok (DB.create_object db ~cls:"Data" ~name:"Events" ()) in
  check_ok "rename" (DB.rename_object db a "Alerts");
  Alcotest.(check bool) "new name" true (DB.find_object db "Alerts" = Some a);
  Alcotest.(check (option Alcotest.reject)) "old gone" None (DB.find_object db "Alarms");
  check_err "clash" is_duplicate (DB.rename_object db a "Events");
  check_err "empty" (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.rename_object db a "")

let test_relationship_lifecycle () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let rel =
    ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms; handler ] ())
  in
  Alcotest.(check (option string)) "assoc" (Some "Access") (DB.assoc_of db rel);
  Alcotest.(check bool) "endpoints" true
    (DB.endpoints db rel = [ alarms; handler ]);
  Alcotest.(check bool) "listed for data" true
    (List.mem rel (DB.relationships db alarms));
  Alcotest.(check bool) "listed for action" true
    (List.mem rel (DB.relationships db handler));
  ok (DB.delete db rel);
  Alcotest.(check (list Alcotest.reject)) "gone" [] (DB.relationships db alarms)

let test_relationship_named_bindings () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let rel =
    ok
      (DB.create_relationship_named db ~assoc:"Access"
         ~bindings:[ ("by", handler); ("from", alarms) ]
         ())
  in
  (* named bindings are order-independent; endpoints are positional *)
  Alcotest.(check bool) "ordered" true (DB.endpoints db rel = [ alarms; handler ]);
  check_err "missing role"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_relationship_named db ~assoc:"Access"
       ~bindings:[ ("from", alarms) ]
       ())

let test_delete_cascades () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let body = ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ()) in
  let rel = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms; handler ] ()) in
  ok (DB.delete db alarms);
  Alcotest.(check bool) "object gone" false (live db alarms);
  Alcotest.(check bool) "sub gone" false (live db text);
  Alcotest.(check bool) "deep sub gone" false (live db body);
  Alcotest.(check bool) "rel gone" false (live db rel);
  Alcotest.(check bool) "other endpoint kept" true (live db handler);
  Alcotest.(check (option Alcotest.reject)) "name free" None (DB.find_object db "Alarms");
  (* logical deletion: the name can be reused *)
  let alarms2 = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  Alcotest.(check bool) "name reused" true (DB.find_object db "Alarms" = Some alarms2)

let test_delete_sub_object_only () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _body = ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ()) in
  ok (DB.delete db text);
  Alcotest.(check bool) "parent kept" true (live db alarms);
  Alcotest.(check (list Alcotest.reject)) "children gone" [] (DB.children db alarms)

let test_delete_twice_fails () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  ok (DB.delete db a);
  check_err "already deleted"
    (function Seed_error.Unknown_item _ -> true | _ -> false)
    (DB.delete db a)

let test_children_listing () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let t0 = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let t1 = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let d = ok (DB.create_sub_object db ~parent:alarms ~role:"Description" ()) in
  Alcotest.(check int) "three children" 3 (List.length (DB.children db alarms));
  Alcotest.(check bool) "all there" true
    (List.for_all (fun c -> List.mem c (DB.children db alarms)) [ t0; t1; d ])

let test_view_all_objects () =
  let db = fresh_db () in
  let _ = with_objects db [ ("A", "Data"); ("B", "Action"); ("C", "Thing") ] in
  let _p = ok (DB.create_object db ~cls:"Data" ~name:"P" ~pattern:true ()) in
  let v = DB.view db in
  Alcotest.(check int) "normals" 3 (List.length (View.all_objects v));
  Alcotest.(check int) "patterns" 1 (List.length (View.all_patterns v))

let test_endpoints_must_be_independent () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  check_err "sub-object endpoint"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_relationship db ~assoc:"Access" ~endpoints:[ text; handler ] ())

let test_arity_checked () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  check_err "one endpoint"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms ] ())

(* [View.resolve_name] reads a path component by component as it walks
   it; any string resolves to what the component-list reading of
   [Path.of_string] resolves it to. The strings are drawn from names,
   roles, indices, separators and malformed pieces. *)
let test_resolve_name_matches_path_reading =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _ = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _ = ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ()) in
  let _ = ok (DB.create_sub_object db ~parent:alarms ~role:"Keywords" ~index:1 ()) in
  let _ = ok (DB.create_sub_object db ~parent:alarms ~role:"Description" ()) in
  let v = DB.view db in
  let module View = Seed_core.View in
  let module Item = Seed_core.Item in
  let by_path s =
    match Path.of_string s with
    | Error _ | Ok [] -> None
    | Ok (root :: rest) ->
      if root.Path.index <> None then None
      else
        let rec descend (item : Item.t) = function
          | [] -> Some item
          | (c : Path.component) :: rest -> (
            match
              List.find_opt
                (fun (k : Item.t) ->
                  match k.Item.body with
                  | Item.Dependent d -> d.role = c.Path.name && d.index = c.Path.index
                  | Item.Independent | Item.Relationship -> false)
                (View.children v item.Item.id)
            with
            | Some k -> descend k rest
            | None -> None)
        in
        Option.bind (View.find_object v root.Path.name) (fun o -> descend o rest)
  in
  let id = Option.map (fun (it : Item.t) -> it.Item.id) in
  let pieces =
    [| "Alarms"; "B"; "Text"; "Body"; "Keywords"; "Description"; "."; "."; "["; "]"; "0";
       "1"; "[0]"; "[1]"; "-1"; "+1"; "0x1"; "1_"; "" |]
  in
  qcheck_case ~count:2000 "resolve_name = Path reading"
    QCheck2.Gen.(list_size (int_range 1 7) (oneofa pieces))
    (fun l ->
      let s = String.concat "" l in
      Option.equal Ident.equal (id (View.resolve_name v s)) (id (by_path s)))

let () =
  Alcotest.run "objects"
    [
      ( "objects",
        [
          tc "create and find" test_create_and_find;
          tc "unknown class" test_unknown_class;
          tc "sub-class not directly creatable" test_subclass_not_creatable_directly;
          tc "duplicate names" test_duplicate_name_rejected;
          tc "rename" test_rename;
          tc "values" test_values;
          tc "a handle fetched before an update is stale" test_stale_handle;
          tc "view filters patterns" test_view_all_objects;
        ] );
      ( "sub-objects",
        [
          tc "composed names (fig 1)" test_sub_object_composed_name;
          tc "single roles unindexed" test_single_role_has_no_index;
          tc "index auto-assignment" test_index_auto_assignment_fills_gaps;
          tc "children listing" test_children_listing;
          test_resolve_name_matches_path_reading;
        ] );
      ( "relationships",
        [
          tc "lifecycle" test_relationship_lifecycle;
          tc "named bindings" test_relationship_named_bindings;
          tc "independent endpoints only" test_endpoints_must_be_independent;
          tc "arity" test_arity_checked;
        ] );
      ( "deletion",
        [
          tc "cascade" test_delete_cascades;
          tc "sub-object only" test_delete_sub_object_only;
          tc "double delete" test_delete_twice_fails;
        ] );
    ]
