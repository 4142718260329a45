(* Patterns and variants: invisibility, inheritance expansion, update
   propagation, protection of inherited information, variant families
   (paper, §Patterns and Variants, Fig. 5). *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module View = Seed_core.View
module Item = Seed_core.Item
module Variant = Seed_core.Variant

(* A deadline-style schema: procedures to specify, with a deadline that
   some of them share through a pattern (the paper's own example). *)
let proc_schema () =
  Schema.of_defs_exn
    [
      Class_def.v [ "Procedure" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.Date
        [ "Procedure"; "Deadline" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.String
        [ "Procedure"; "Comment" ];
      Class_def.v [ "Module" ];
    ]
    [
      Assoc_def.v "Implements"
        [
          Assoc_def.role "impl" "Procedure";
          Assoc_def.role "target" "Module";
        ];
    ]

let test_patterns_invisible () =
  let db = DB.create (proc_schema ()) in
  let _p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  Alcotest.(check (option Alcotest.reject)) "not retrievable" None
    (DB.find_object db "Std");
  Alcotest.(check bool) "but addressable as pattern" true
    (DB.find_pattern db "Std" <> None);
  Alcotest.(check int) "not counted" 0 (DB.object_count db)

let test_pattern_namespace_shared () =
  let db = DB.create (proc_schema ()) in
  let _p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  check_err "name taken" is_duplicate
    (DB.create_object db ~cls:"Procedure" ~name:"Std" ())

let test_inherited_sub_objects_visible () =
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let deadline =
    ok
      (DB.create_sub_object db ~parent:p ~role:"Deadline"
         ~value:(Value.date 1986 12 31) ())
  in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  (* the deadline appears in the inheritor's context *)
  let v = DB.view db in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) proc) in
  let kids = View.children_v v (View.vitem_real item) in
  Alcotest.(check int) "one inherited child" 1 (List.length kids);
  let kid = List.hd kids in
  Alcotest.(check bool) "underlying is the pattern's item" true
    (Ident.equal kid.View.item.Item.id deadline);
  Alcotest.(check (option string)) "named in inheritor context"
    (Some "Parser.Deadline") (View.vitem_name v kid);
  Alcotest.(check bool) "marked inherited" true (kid.View.via <> None)

let test_pattern_update_propagates () =
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let deadline =
    ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ())
  in
  let procs =
    List.map
      (fun n ->
        let id = ok (DB.create_object db ~cls:"Procedure" ~name:n ()) in
        check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:id);
        id)
      [ "Parser"; "Lexer"; "Printer" ]
  in
  let v = DB.view db in
  let deadline_of id =
    let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) id) in
    match View.child_v v (View.vitem_real item) ~role:"Deadline" () with
    | Some kid -> (
      match View.state v kid.View.item with
      | Seed_core.Item.Obj o -> o.value
      | Seed_core.Item.Rel _ | Seed_core.Item.Absent -> None)
    | None -> None
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) "initial deadline" true
        (deadline_of id = Some (Value.date 1986 6 1)))
    procs;
  (* one update in the pattern reaches every inheritor *)
  check_ok "postpone" (DB.set_value db deadline (Some (Value.date 1986 12 31)));
  List.iter
    (fun id ->
      Alcotest.(check bool) "new deadline everywhere" true
        (deadline_of id = Some (Value.date 1986 12 31)))
    procs

let test_inherited_info_not_updatable_via_inheritor () =
  (* inherited sub-objects keep their own identity; updating them updates
     the pattern — there is no way to give one inheritor its own copy,
     which is exactly the paper's guarantee. What must hold: the
     inheritor context offers no second, private deadline slot. *)
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ()) in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  (* Deadline is 0..1 and the inherited one occupies the slot *)
  check_err "own deadline refused" is_duplicate
    (DB.create_sub_object db ~parent:proc ~role:"Deadline"
       ~value:(Value.date 1987 1 1) ())

let test_pattern_update_checked_against_inheritors () =
  (* patterns are not checked for counting consistency unless inherited:
     an inheritance that would overflow the combined context is refused,
     and once inherited, pattern updates are checked in every
     inheritor's context and rolled back on conflict *)
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  (* the inheritor brings its own deadline *)
  let _own =
    ok
      (DB.create_sub_object db ~parent:proc ~role:"Deadline"
         ~value:(Value.date 1987 1 1) ())
  in
  (* a pattern deadline on top would exceed Deadline 0..1 *)
  let pd = ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ()) in
  check_err "inheriting would overflow the context" is_cardinality
    (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  (* repair the pattern, inherit, then try to break it through the
     pattern side *)
  ok (DB.delete db pd);
  check_ok "inherit now" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  check_err "pattern update now checked in context" is_cardinality
    (DB.create_sub_object db ~parent:p ~role:"Deadline"
       ~value:(Value.date 1986 6 1) ());
  Alcotest.(check int) "pattern rolled back to empty" 0
    (List.length (DB.children db p))

let test_inheritance_cycles_refused () =
  let db = DB.create (proc_schema ()) in
  let p1 = ok (DB.create_object db ~cls:"Procedure" ~name:"P1" ~pattern:true ()) in
  let p2 = ok (DB.create_object db ~cls:"Procedure" ~name:"P2" ~pattern:true ()) in
  check_ok "p2 inherits p1" (DB.inherit_pattern db ~pattern:p1 ~inheritor:p2);
  check_err "cycle" is_pattern_violation
    (DB.inherit_pattern db ~pattern:p2 ~inheritor:p1);
  check_err "self" is_pattern_violation
    (DB.inherit_pattern db ~pattern:p1 ~inheritor:p1);
  check_err "double" is_pattern_violation
    (DB.inherit_pattern db ~pattern:p1 ~inheritor:p2)

let test_transitive_inheritance () =
  let db = DB.create (proc_schema ()) in
  let base = ok (DB.create_object db ~cls:"Procedure" ~name:"Base" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:base ~role:"Deadline" ~value:(Value.date 1986 1 1) ()) in
  let mid = ok (DB.create_object db ~cls:"Procedure" ~name:"Mid" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:mid ~role:"Comment" ~value:(Value.String "std") ()) in
  check_ok "mid inherits base" (DB.inherit_pattern db ~pattern:base ~inheritor:mid);
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "proc inherits mid" (DB.inherit_pattern db ~pattern:mid ~inheritor:proc);
  let v = DB.view db in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) proc) in
  let kids = View.children_v v (View.vitem_real item) in
  (* both the Comment (from Mid) and the Deadline (from Base) appear *)
  Alcotest.(check int) "two inherited children" 2 (List.length kids)

let test_non_pattern_cannot_be_inherited () =
  let db = DB.create (proc_schema ()) in
  let normal = ok (DB.create_object db ~cls:"Procedure" ~name:"N" ()) in
  let other = ok (DB.create_object db ~cls:"Procedure" ~name:"O" ()) in
  check_err "normal not inheritable" is_pattern_violation
    (DB.inherit_pattern db ~pattern:normal ~inheritor:other)

let test_pattern_with_inheritors_not_deletable () =
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  check_err "delete refused" is_pattern_violation (DB.delete db p);
  check_ok "uninherit" (DB.uninherit_pattern db ~pattern:p ~inheritor:proc);
  check_ok "delete now" (DB.delete db p)

let test_uninherit () =
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ()) in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  check_ok "uninherit" (DB.uninherit_pattern db ~pattern:p ~inheritor:proc);
  let v = DB.view db in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) proc) in
  Alcotest.(check int) "no children left" 0
    (List.length (View.children_v v (View.vitem_real item)));
  check_err "not inherited" is_pattern_violation
    (DB.uninherit_pattern db ~pattern:p ~inheritor:proc)

(* --- pattern relationships and variants (Fig. 5) -------------------- *)

let test_pattern_relationships_expand () =
  let db = DB.create (proc_schema ()) in
  let common = ok (DB.create_object db ~cls:"Module" ~name:"Kernel" ()) in
  let po = ok (DB.create_object db ~cls:"Procedure" ~name:"PO" ~pattern:true ()) in
  let pr =
    ok
      (DB.create_relationship db ~assoc:"Implements" ~endpoints:[ po; common ]
         ~pattern:true ())
  in
  (* the pattern relationship is invisible *)
  Alcotest.(check (list Alcotest.reject)) "invisible on common" []
    (DB.relationships db common);
  let v1 = ok (DB.create_object db ~cls:"Procedure" ~name:"VariantA" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:v1);
  (* now VariantA is implicitly related to Kernel *)
  let v = DB.view db in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) v1) in
  let vrels = View.rels_v v item in
  Alcotest.(check int) "one inherited rel" 1 (List.length vrels);
  let vr = List.hd vrels in
  Alcotest.(check bool) "substituted endpoints" true
    (vr.View.endpoints = [ v1; common ]);
  Alcotest.(check bool) "underlying is the pattern rel" true
    (Ident.equal vr.View.rel.Item.id pr)

let test_relationship_with_pattern_endpoint_must_be_pattern () =
  let db = DB.create (proc_schema ()) in
  let common = ok (DB.create_object db ~cls:"Module" ~name:"Kernel" ()) in
  let po = ok (DB.create_object db ~cls:"Procedure" ~name:"PO" ~pattern:true ()) in
  check_err "normal rel to pattern" is_pattern_violation
    (DB.create_relationship db ~assoc:"Implements" ~endpoints:[ po; common ] ())

let test_variant_family_fig5 () =
  let db = DB.create (proc_schema ()) in
  let common = ok (DB.create_object db ~cls:"Module" ~name:"Common" ()) in
  let po1 = ok (DB.create_object db ~cls:"Procedure" ~name:"PO1" ~pattern:true ()) in
  let po2 = ok (DB.create_object db ~cls:"Procedure" ~name:"PO2" ~pattern:true ()) in
  let _pr1 =
    ok (Variant.connect_common db ~pattern:po1 ~assoc:"Implements" ~pattern_role:"impl" ~common)
  in
  let _pr2 =
    ok (Variant.connect_common db ~pattern:po2 ~assoc:"Implements" ~pattern_role:"impl" ~common)
  in
  let va = ok (DB.create_object db ~cls:"Procedure" ~name:"VariantA" ()) in
  let vb = ok (DB.create_object db ~cls:"Procedure" ~name:"VariantB" ()) in
  check_ok "A joins" (Variant.add_variant db ~member:va ~patterns:[ po1; po2 ]);
  check_ok "B joins" (Variant.add_variant db ~member:vb ~patterns:[ po1; po2 ]);
  let v = DB.view db in
  let members = Variant.members v ~patterns:[ po1; po2 ] in
  Alcotest.(check int) "two variants" 2 (List.length members);
  (* both variants are connected to the common part identically *)
  Alcotest.(check bool) "shared common part" true
    (Variant.shares_common v ~patterns:[ po1; po2 ]);
  let item id = Option.get (Seed_core.Db_state.find_item (DB.raw db) id) in
  let commons_a = Variant.common_of v ~member:(item va) ~assoc:"Implements" in
  Alcotest.(check int) "A sees common" 1 (List.length commons_a);
  Alcotest.(check bool) "it is Common" true
    (Ident.equal (List.hd commons_a).Item.id common);
  (* dropping one variant's membership breaks the sharing *)
  check_ok "B leaves po2" (Variant.remove_variant db ~member:vb ~patterns:[ po2 ]);
  let members = Variant.members v ~patterns:[ po1; po2 ] in
  Alcotest.(check int) "one full member left" 1 (List.length members)

let test_variants_differ_from_alternatives () =
  (* variants coexist inside one database version; alternatives are
     different versions. Check both mechanisms coexist. *)
  let db = DB.create (proc_schema ()) in
  let common = ok (DB.create_object db ~cls:"Module" ~name:"Common" ()) in
  let po = ok (DB.create_object db ~cls:"Procedure" ~name:"PO" ~pattern:true ()) in
  let _ = ok (Variant.connect_common db ~pattern:po ~assoc:"Implements" ~pattern_role:"impl" ~common) in
  let va = ok (DB.create_object db ~cls:"Procedure" ~name:"VariantA" ()) in
  check_ok "join" (Variant.add_variant db ~member:va ~patterns:[ po ]);
  let v1 = ok (DB.create_version db) in
  (* an alternative without the variant *)
  ok (DB.begin_alternative db ~from_:v1 ());
  check_ok "leave" (Variant.remove_variant db ~member:va ~patterns:[ po ]);
  let _alt = ok (DB.create_version db) in
  ok (DB.begin_alternative db ~from_:v1 ());
  let v = DB.view db in
  Alcotest.(check int) "variant still in 1.0-based current" 1
    (List.length (Variant.members v ~patterns:[ po ]))

let test_pattern_visibility_in_versions () =
  let db = DB.create (proc_schema ()) in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let d = ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ()) in
  let proc = ok (DB.create_object db ~cls:"Procedure" ~name:"Parser" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:proc);
  let v1 = ok (DB.create_version db) in
  check_ok "postpone" (DB.set_value db d (Some (Value.date 1986 12 31)));
  let _v2 = ok (DB.create_version db) in
  (* the old version still sees the old inherited value *)
  let old_view = ok (DB.view_at db v1) in
  let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) proc) in
  (match View.child_v old_view (View.vitem_real item) ~role:"Deadline" () with
  | Some kid ->
    Alcotest.(check bool) "old value" true
      (match View.state old_view kid.View.item with
      | Seed_core.Item.Obj o -> o.value = Some (Value.date 1986 6 1)
      | Seed_core.Item.Rel _ | Seed_core.Item.Absent -> false)
  | None -> Alcotest.fail "inherited child missing in old view")

let () =
  Alcotest.run "patterns"
    [
      ( "visibility",
        [
          tc "patterns invisible to retrieval" test_patterns_invisible;
          tc "shared namespace" test_pattern_namespace_shared;
        ] );
      ( "inheritance",
        [
          tc "inherited sub-objects" test_inherited_sub_objects_visible;
          tc "update propagation" test_pattern_update_propagates;
          tc "inherited slot occupied" test_inherited_info_not_updatable_via_inheritor;
          tc "checked once inherited" test_pattern_update_checked_against_inheritors;
          tc "cycles refused" test_inheritance_cycles_refused;
          tc "transitive" test_transitive_inheritance;
          tc "normals not inheritable" test_non_pattern_cannot_be_inherited;
          tc "delete protection" test_pattern_with_inheritors_not_deletable;
          tc "uninherit" test_uninherit;
        ] );
      ( "variants",
        [
          tc "pattern relationships expand" test_pattern_relationships_expand;
          tc "pattern endpoint forces pattern rel"
            test_relationship_with_pattern_endpoint_must_be_pattern;
          tc "fig 5 family" test_variant_family_fig5;
          tc "variants vs alternatives" test_variants_differ_from_alternatives;
          tc "patterns and versions" test_pattern_visibility_in_versions;
        ] );
    ]
