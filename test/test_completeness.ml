(* Completeness information is checked only on demand: minimum
   cardinalities, covering conditions, undefined values (paper,
   §Incomplete data). *)

open Seed_schema
open Helpers
module DB = Seed_core.Database
module C = Seed_core.Completeness

let has pred report = List.exists pred report

let is_missing_sub ?role report =
  has
    (function
      | C.Missing_sub_objects m -> (
        match role with None -> true | Some r -> String.equal m.role r)
      | _ -> false)
    report

let is_missing_participation ?assoc report =
  has
    (function
      | C.Missing_participation m -> (
        match assoc with None -> true | Some a -> String.equal m.assoc a)
      | _ -> false)
    report

let is_unspecialized_class report =
  has (function C.Unspecialized_class _ -> true | _ -> false) report

let is_unspecialized_assoc report =
  has (function C.Unspecialized_assoc _ -> true | _ -> false) report

let is_undefined_value report =
  has (function C.Undefined_value _ -> true | _ -> false) report

let test_incomplete_entry_is_accepted () =
  (* the paper's example (2): under Fig. 2 cardinalities a conventional
     DBMS cannot accept 'Alarms' without its Read and Write; SEED can *)
  let db = DB.create (fig2_schema ()) in
  check_ok "bare data object accepted"
    (Result.map (fun _ -> ()) (DB.create_object db ~cls:"Data" ~name:"Alarms" ()));
  let report = DB.completeness_report db in
  Alcotest.(check bool) "read missing" true (is_missing_participation ~assoc:"Read" report);
  Alcotest.(check bool) "write missing" true
    (is_missing_participation ~assoc:"Write" report);
  Alcotest.(check bool) "not complete" false (DB.is_complete db)

let test_min_participation_satisfied () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ alarms; h ] ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Write" ~endpoints:[ alarms; h ] ()) in
  Alcotest.(check bool) "complete now" true (DB.is_complete db)

let test_min_sub_objects () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  (* Text requires a Body (1..1) *)
  let report = DB.completeness_report db in
  Alcotest.(check bool) "body missing" true (is_missing_sub ~role:"Body" report);
  let _ =
    ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ())
  in
  let report = DB.completeness_report db in
  Alcotest.(check bool) "body satisfied" false (is_missing_sub ~role:"Body" report)

let test_undefined_value_diagnosed () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let body = ok (DB.create_sub_object db ~parent:text ~role:"Body" ()) in
  Alcotest.(check bool) "undefined body" true
    (is_undefined_value (DB.completeness_report db));
  check_ok "define" (DB.set_value db body (Some (Value.String "text")));
  Alcotest.(check bool) "defined" false
    (is_undefined_value (DB.completeness_report db))

let test_covering_class () =
  let db = fresh_db () in
  let t = ok (DB.create_object db ~cls:"Thing" ~name:"T" ()) in
  Alcotest.(check bool) "thing unspecialized" true
    (is_unspecialized_class (DB.completeness_report db));
  ok (DB.reclassify db t ~to_:"Action");
  Alcotest.(check bool) "action precise enough" false
    (is_unspecialized_class (DB.completeness_report db));
  (* Data is not covering in the Fig. 3 schema: sitting there is fine *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  Alcotest.(check bool) "data ok" false
    (is_unspecialized_class (DB.completeness_report db))

let test_covering_assoc () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let r = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; a ] ()) in
  Alcotest.(check bool) "access unspecialized" true
    (is_unspecialized_assoc (DB.completeness_report db));
  ok (DB.reclassify db d ~to_:"InputData");
  ok (DB.reclassify db r ~to_:"Read");
  Alcotest.(check bool) "read precise" false
    (is_unspecialized_assoc (DB.completeness_report db))

let test_generalized_minimum_either_specialization_counts () =
  (* 'Access by 1..*' with Read/Write 'by 0..*': either a read or a
     write access satisfies the condition (paper, §Vague data) *)
  let db = fresh_db () in
  let i = ok (DB.create_object db ~cls:"InputData" ~name:"I" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  Alcotest.(check bool) "action needs access" true
    (is_missing_participation ~assoc:"Access" (DB.completeness_report db));
  let _ = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ i; a ] ()) in
  Alcotest.(check bool) "read satisfies access minimum" false
    (is_missing_participation ~assoc:"Access" (DB.completeness_report db))

let test_report_names_subjects () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let _ = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let report = DB.completeness_report db in
  let subjects =
    List.filter_map
      (function
        | C.Missing_sub_objects { subject; _ } -> Some subject
        | _ -> None)
      report
  in
  Alcotest.(check bool) "names composed" true
    (List.mem "Alarms.Text[0]" subjects);
  (* diagnostics print *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "printable" true
        (String.length (Fmt.str "%a" C.pp_diagnostic d) > 0))
    report

let test_deleted_items_not_reported () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  ok (DB.delete db alarms);
  Alcotest.(check int) "empty report" 0 (List.length (DB.completeness_report db))

let test_patterns_not_reported () =
  let db = DB.create (fig2_schema ()) in
  let _p = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  (* the pattern is as incomplete as can be, yet unchecked *)
  Alcotest.(check int) "patterns invisible" 0
    (List.length (DB.completeness_report db))

let test_completeness_versus_consistency_partition () =
  (* minima never block updates; maxima and ACYCLIC always do — the
     information partition that defines SEED *)
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  Alcotest.(check bool) "incomplete but present" true (DB.full_name db alarms = Some "Alarms");
  let h = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  check_err "self containment refused" is_cycle
    (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ h; h ] ())

let test_check_single_object () =
  let db = DB.create (fig2_schema ()) in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let ok_obj = ok (DB.create_object db ~cls:"Action" ~name:"H" ()) in
  let v = DB.view db in
  let item id = Option.get (Seed_core.Db_state.find_item (DB.raw db) id) in
  Alcotest.(check bool) "alarms incomplete" true
    (C.check_object v (item alarms) <> []);
  Alcotest.(check bool) "action complete" true (C.check_object v (item ok_obj) = [])

let () =
  Alcotest.run "completeness"
    [
      ( "minimum cardinalities",
        [
          tc "incomplete entry accepted (paper ex. 2)" test_incomplete_entry_is_accepted;
          tc "participation satisfied" test_min_participation_satisfied;
          tc "sub-object minima" test_min_sub_objects;
          tc "generalized minimum (read or write)"
            test_generalized_minimum_either_specialization_counts;
        ] );
      ( "covering",
        [ tc "classes" test_covering_class; tc "associations" test_covering_assoc ] );
      ( "values",
        [ tc "undefined values" test_undefined_value_diagnosed ] );
      ( "reporting",
        [
          tc "subjects named" test_report_names_subjects;
          tc "deleted silent" test_deleted_items_not_reported;
          tc "patterns silent" test_patterns_not_reported;
          tc "partition demo" test_completeness_versus_consistency_partition;
          tc "single object check" test_check_single_object;
        ] );
    ]
