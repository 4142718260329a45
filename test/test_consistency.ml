(* Consistency information is checked on every update: membership,
   maximum cardinalities, ACYCLIC, value types, attached procedures
   (paper, §Managing vague and incomplete information). *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Event = Seed_core.Event
module Item = Seed_core.Item
module Db_state = Seed_core.Db_state

let test_max_cardinality_sub_objects () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  (* Keywords is 0..8 *)
  for i = 0 to 7 do
    ignore
      (ok
         (DB.create_sub_object db ~parent:a ~role:"Keywords"
            ~value:(Value.String (string_of_int i)) ()))
  done;
  check_err "ninth keyword" is_cardinality
    (DB.create_sub_object db ~parent:a ~role:"Keywords" ~value:(Value.String "x") ());
  (* Description is 0..1 *)
  let _ = ok (DB.create_sub_object db ~parent:a ~role:"Description" ()) in
  check_err "second description" is_duplicate
    (DB.create_sub_object db ~parent:a ~role:"Description" ())

let test_max_cardinality_after_delete () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let first = ok (DB.create_sub_object db ~parent:a ~role:"Description" ()) in
  ok (DB.delete db first);
  (* logical deletion frees the slot *)
  check_ok "recreate" (DB.create_sub_object db ~parent:a ~role:"Description" ())

let test_membership_endpoint_classes () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let t = ok (DB.create_object db ~cls:"Thing" ~name:"T" ()) in
  (* Access relates Data to Action *)
  check_ok "ok" (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; a ] ());
  check_err "swapped" is_membership
    (DB.create_relationship db ~assoc:"Access" ~endpoints:[ a; d ] ());
  (* a Thing is not yet a Data: the paper's example (1) — the vague
     dataflow cannot be stored against the unrefined object *)
  check_err "thing too vague" is_membership
    (DB.create_relationship db ~assoc:"Access" ~endpoints:[ t; a ] ())

let test_specialized_membership () =
  let db = fresh_db () in
  let i = ok (DB.create_object db ~cls:"InputData" ~name:"I" ()) in
  let o = ok (DB.create_object db ~cls:"OutputData" ~name:"O" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  (* InputData is a Data: generalized association accepts it *)
  check_ok "input via access"
    (DB.create_relationship db ~assoc:"Access" ~endpoints:[ i; a ] ());
  check_ok "read wants input"
    (DB.create_relationship db ~assoc:"Read" ~endpoints:[ i; a ] ());
  check_err "read refuses output" is_membership
    (DB.create_relationship db ~assoc:"Read" ~endpoints:[ o; a ] ());
  check_ok "write wants output"
    (DB.create_relationship db ~assoc:"Write" ~endpoints:[ o; a ] ())

let test_participation_max () =
  (* contained: each action sits in at most one container *)
  let db = fresh_db () in
  let child = ok (DB.create_object db ~cls:"Action" ~name:"Child" ()) in
  let c1 = ok (DB.create_object db ~cls:"Action" ~name:"C1" ()) in
  let c2 = ok (DB.create_object db ~cls:"Action" ~name:"C2" ()) in
  check_ok "first container"
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ child; c1 ] ());
  check_err "second container" is_cardinality
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ child; c2 ] ())

let test_participation_max_counts_specializations () =
  (* a custom schema where the generalized association has a max bound:
     specializations must count against it *)
  let schema =
    Schema.of_defs_exn
      [
        Class_def.v [ "D" ];
        Class_def.v [ "A" ];
      ]
      [
        Assoc_def.v "Link"
          [
            Assoc_def.role ~card:(Cardinality.between 0 1) "from" "D";
            Assoc_def.role "by" "A";
          ];
        Assoc_def.v ~super:"Link" "Strong"
          [ Assoc_def.role "from" "D"; Assoc_def.role "by" "A" ];
        Assoc_def.v ~super:"Link" "Weak"
          [ Assoc_def.role "from" "D"; Assoc_def.role "by" "A" ];
      ]
  in
  let db = DB.create schema in
  let d = ok (DB.create_object db ~cls:"D" ~name:"d" ()) in
  let a = ok (DB.create_object db ~cls:"A" ~name:"a" ()) in
  check_ok "strong" (DB.create_relationship db ~assoc:"Strong" ~endpoints:[ d; a ] ());
  (* a Weak would be the second Link of d *)
  check_err "weak counts against Link max" is_cardinality
    (DB.create_relationship db ~assoc:"Weak" ~endpoints:[ d; a ] ())

let test_acyclic () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let b = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  let c = ok (DB.create_object db ~cls:"Action" ~name:"C" ()) in
  check_ok "a in b" (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ a; b ] ());
  check_ok "b in c" (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ b; c ] ());
  check_err "c in a closes cycle" is_cycle
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ c; a ] ());
  (* self loop on a fresh node (so the participation bound stays out of
     the way and the cycle check itself fires) *)
  let d = ok (DB.create_object db ~cls:"Action" ~name:"D" ()) in
  check_err "self loop" is_cycle
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ d; d ] ())

let test_acyclic_after_delete () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let b = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  let r = ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ a; b ] ()) in
  ok (DB.delete db r);
  check_ok "reverse edge fine after delete"
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ b; a ] ())

let test_value_type_enforced () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  check_err "int into string" is_type
    (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.Int 3) ());
  check_err "bad enum" is_type
    (DB.create_sub_object db ~parent:a ~role:"ErrorHandling"
       ~value:(Value.Enum "explode") ());
  check_ok "good enum"
    (DB.create_sub_object db ~parent:a ~role:"ErrorHandling"
       ~value:(Value.Enum "repeat") ());
  (* Text carries no content *)
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  check_err "value on contentless class" is_type
    (DB.create_sub_object db ~parent:d ~role:"Text" ~value:(Value.String "x") ())

let test_set_value_checks_type () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let d = ok (DB.create_sub_object db ~parent:a ~role:"Description" ()) in
  check_err "wrong type" is_type (DB.set_value db d (Some (Value.Int 3)));
  check_ok "right type" (DB.set_value db d (Some (Value.String "ok")))

(* --- re-classification (the vague-data operation) ------------------- *)

let test_reclassify_down_and_up () =
  let db = fresh_db () in
  let t = ok (DB.create_object db ~cls:"Thing" ~name:"Alarms" ()) in
  check_ok "thing -> data" (DB.reclassify db t ~to_:"Data");
  Alcotest.(check (option string)) "now data" (Some "Data") (DB.class_of db t);
  check_ok "data -> output" (DB.reclassify db t ~to_:"OutputData");
  check_ok "output -> data (vaguer again)" (DB.reclassify db t ~to_:"Data");
  check_ok "data -> thing" (DB.reclassify db t ~to_:"Thing")

let test_reclassify_other_hierarchy () =
  let schema =
    Schema.of_defs_exn
      [ Class_def.v [ "A" ]; Class_def.v [ "B" ] ]
      []
  in
  let db = DB.create schema in
  let a = ok (DB.create_object db ~cls:"A" ~name:"x" ()) in
  check_err "different hierarchy"
    (function Seed_error.Not_in_generalization _ -> true | _ -> false)
    (DB.reclassify db a ~to_:"B")

let test_reclassify_sideways_with_rels () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ d; a ] ()) in
  (* Read requires InputData; the relationship pins the object's class
     in both directions *)
  check_err "read pins against sideways move" is_membership
    (DB.reclassify db d ~to_:"OutputData");
  check_err "read pins against generalizing" is_membership
    (DB.reclassify db d ~to_:"Data");
  (* make the relationship vaguer first, then the object may follow *)
  let rel = List.hd (DB.relationships db d) in
  check_ok "generalize rel" (DB.reclassify db rel ~to_:"Access");
  check_ok "now the object can generalize" (DB.reclassify db d ~to_:"Data")

let test_reclassify_up_with_children () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let _text = ok (DB.create_sub_object db ~parent:d ~role:"Text" ()) in
  (* Thing has no Text sub-class *)
  check_err "text blocks generalization" is_membership
    (DB.reclassify db d ~to_:"Thing");
  (* inherited Thing children never block *)
  let d2 = ok (DB.create_object db ~cls:"Data" ~name:"D2" ()) in
  let _ = ok (DB.create_sub_object db ~parent:d2 ~role:"Description" ()) in
  check_ok "description fine" (DB.reclassify db d2 ~to_:"Thing")

let test_reclassify_relationship () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let r = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; a ] ()) in
  check_ok "specialize" (DB.reclassify db r ~to_:"Read");
  Alcotest.(check (option string)) "read" (Some "Read") (DB.assoc_of db r);
  check_ok "generalize back" (DB.reclassify db r ~to_:"Access");
  (* endpoint class forbids Write *)
  check_err "write needs output" is_membership (DB.reclassify db r ~to_:"Write");
  check_err "foreign hierarchy"
    (function Seed_error.Not_in_generalization _ -> true | _ -> false)
    (DB.reclassify db r ~to_:"Contained")

(* Re-classifying a relationship into a level it was not in before
   counts it there: against that level's participation maximum and, for
   an ACYCLIC level, against the edges already present. *)
let test_reclassify_rel_new_levels () =
  let schema =
    Schema.of_defs_exn
      [ Class_def.v [ "D" ]; Class_def.v [ "A" ] ]
      [
        Assoc_def.v "Use" [ Assoc_def.role "from" "D"; Assoc_def.role "by" "A" ];
        Assoc_def.v ~super:"Use" "Loose"
          [ Assoc_def.role "from" "D"; Assoc_def.role "by" "A" ];
        Assoc_def.v ~super:"Use" "Bounded"
          [
            Assoc_def.role ~card:(Cardinality.between 0 1) "from" "D";
            Assoc_def.role "by" "A";
          ];
        Assoc_def.v "Edge" [ Assoc_def.role "up" "A"; Assoc_def.role "down" "A" ];
        Assoc_def.v ~super:"Edge" "Plain"
          [ Assoc_def.role "up" "A"; Assoc_def.role "down" "A" ];
        Assoc_def.v ~super:"Edge" ~acyclic:true "Tree"
          [ Assoc_def.role "up" "A"; Assoc_def.role "down" "A" ];
      ]
  in
  let db = DB.create schema in
  let d = ok (DB.create_object db ~cls:"D" ~name:"d" ()) in
  let a = ok (DB.create_object db ~cls:"A" ~name:"a" ()) in
  let b = ok (DB.create_object db ~cls:"A" ~name:"b" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Bounded" ~endpoints:[ d; a ] ()) in
  let loose = ok (DB.create_relationship db ~assoc:"Loose" ~endpoints:[ d; b ] ()) in
  check_err "second Bounded of d" is_cardinality (DB.reclassify db loose ~to_:"Bounded");
  Alcotest.(check (option string)) "still loose" (Some "Loose") (DB.assoc_of db loose);
  let _ = ok (DB.create_relationship db ~assoc:"Tree" ~endpoints:[ a; b ] ()) in
  let back = ok (DB.create_relationship db ~assoc:"Plain" ~endpoints:[ b; a ] ()) in
  check_err "b over a closes a Tree cycle" is_cycle (DB.reclassify db back ~to_:"Tree");
  Alcotest.(check (option string)) "still plain" (Some "Plain") (DB.assoc_of db back)

let test_empty_name_refused () =
  let db = fresh_db () in
  let is_invalid = function Seed_error.Invalid_operation _ -> true | _ -> false in
  check_err "create" is_invalid (DB.create_object db ~cls:"Thing" ~name:"" ());
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  check_err "rename" is_invalid (DB.rename_object db a "")

let test_reclassify_fig3_walkthrough () =
  (* the paper's full §Vague data walkthrough *)
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Thing" ~name:"Alarms" ()) in
  let sensor = ok (DB.create_object db ~cls:"Thing" ~name:"Sensor" ()) in
  (* "we know more: Alarms is a data object accessed by action Sensor" *)
  check_ok "alarms -> data" (DB.reclassify db alarms ~to_:"Data");
  check_ok "sensor -> action" (DB.reclassify db sensor ~to_:"Action");
  let access =
    ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms; sensor ] ())
  in
  (* "Alarms is an output": specialize object, then the relationship *)
  check_ok "alarms -> output" (DB.reclassify db alarms ~to_:"OutputData");
  check_ok "access -> write" (DB.reclassify db access ~to_:"Write");
  Alcotest.(check (option string)) "write" (Some "Write") (DB.assoc_of db access)

(* --- attached procedures ------------------------------------------- *)

let schema_with_proc () =
  Schema.of_defs_exn
    [
      Class_def.v ~procedures:[ "audit" ] [ "Doc" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.Int
        [ "Doc"; "Pages" ];
    ]
    []

let test_procedure_must_be_registered () =
  let db = DB.create (schema_with_proc ()) in
  check_err "unregistered"
    (function Seed_error.Unknown_procedure _ -> true | _ -> false)
    (DB.create_object db ~cls:"Doc" ~name:"D" ())

let test_procedure_observes_events () =
  let db = DB.create (schema_with_proc ()) in
  let events = ref [] in
  DB.register_procedure db "audit" (fun _ e ->
      events := e :: !events;
      Ok ());
  let d = ok (DB.create_object db ~cls:"Doc" ~name:"D" ()) in
  check_ok "rename" (DB.rename_object db d "D2");
  check_ok "delete" (DB.delete db d);
  let kinds =
    List.rev_map
      (function
        | Event.Created _ -> "created"
        | Event.Renamed _ -> "renamed"
        | Event.Deleted _ -> "deleted"
        | _ -> "other")
      !events
  in
  Alcotest.(check (list string)) "sequence" [ "created"; "renamed"; "deleted" ] kinds

let test_procedure_veto_rolls_back () =
  let db = DB.create (schema_with_proc ()) in
  DB.register_procedure db "audit" (fun db e ->
      match e with
      | Event.Value_updated { id; _ } -> (
        (* the complex integrity constraint of the paper: page counts
           must stay below 100 *)
        match DB.get_value (Seed_core.Database.of_raw db) id with
        | Some (Value.Int n) when n >= 100 ->
          Error (Seed_error.Vetoed { procedure = "audit"; reason = "too long" })
        | _ -> Ok ())
      | _ -> Ok ());
  let d = ok (DB.create_object db ~cls:"Doc" ~name:"D" ()) in
  let pages = ok (DB.create_sub_object db ~parent:d ~role:"Pages" ~value:(Value.Int 10) ()) in
  check_ok "small update" (DB.set_value db pages (Some (Value.Int 50)));
  check_err "vetoed" is_vetoed (DB.set_value db pages (Some (Value.Int 100)));
  (* the update was rolled back *)
  Alcotest.(check bool) "rolled back" true
    (DB.get_value db pages = Some (Value.Int 50))

let test_procedure_veto_rolls_back_creation () =
  let db = DB.create (schema_with_proc ()) in
  let allow = ref true in
  DB.register_procedure db "audit" (fun _ _ ->
      if !allow then Ok ()
      else Error (Seed_error.Vetoed { procedure = "audit"; reason = "no" }));
  let _d = ok (DB.create_object db ~cls:"Doc" ~name:"D" ()) in
  allow := false;
  check_err "creation vetoed" is_vetoed (DB.create_object db ~cls:"Doc" ~name:"E" ());
  Alcotest.(check (option Alcotest.reject)) "not inserted" None (DB.find_object db "E");
  allow := true;
  check_ok "name still free" (Result.map (fun _ -> ()) (DB.create_object db ~cls:"Doc" ~name:"E" ()))

let test_procedure_runs_along_generalization () =
  let schema =
    Schema.of_defs_exn
      [
        Class_def.v ~procedures:[ "base" ] [ "Base" ];
        Class_def.v ~super:"Base" ~procedures:[ "derived" ] [ "Derived" ];
      ]
      []
  in
  let db = DB.create schema in
  let hits = ref [] in
  DB.register_procedure db "base" (fun _ _ -> hits := "base" :: !hits; Ok ());
  DB.register_procedure db "derived" (fun _ _ -> hits := "derived" :: !hits; Ok ());
  let _ = ok (DB.create_object db ~cls:"Derived" ~name:"X" ()) in
  Alcotest.(check (list string)) "both ran (own first)" [ "derived"; "base" ]
    (List.rev !hits)

let () =
  Alcotest.run "consistency"
    [
      ( "maximum cardinalities",
        [
          tc "sub-object bounds" test_max_cardinality_sub_objects;
          tc "slots freed by delete" test_max_cardinality_after_delete;
          tc "participation bound" test_participation_max;
          tc "generalized participation" test_participation_max_counts_specializations;
        ] );
      ( "membership",
        [
          tc "endpoint classes" test_membership_endpoint_classes;
          tc "specialized associations" test_specialized_membership;
          tc "value types" test_value_type_enforced;
          tc "set_value" test_set_value_checks_type;
          tc "empty names" test_empty_name_refused;
        ] );
      ( "acyclic",
        [ tc "cycles refused" test_acyclic; tc "delete frees" test_acyclic_after_delete ] );
      ( "reclassify",
        [
          tc "down and up" test_reclassify_down_and_up;
          tc "foreign hierarchy" test_reclassify_other_hierarchy;
          tc "relationships pin classes" test_reclassify_sideways_with_rels;
          tc "children pin classes" test_reclassify_up_with_children;
          tc "relationship reclassification" test_reclassify_relationship;
          tc "fig 3 walkthrough" test_reclassify_fig3_walkthrough;
          tc "relationship enters new levels" test_reclassify_rel_new_levels;
        ] );
      ( "attached procedures",
        [
          tc "must be registered" test_procedure_must_be_registered;
          tc "observe events" test_procedure_observes_events;
          tc "veto rolls back update" test_procedure_veto_rolls_back;
          tc "veto rolls back creation" test_procedure_veto_rolls_back_creation;
          tc "generalization chain" test_procedure_runs_along_generalization;
        ] );
    ]
