(* The SPADES tool layer: the paper's evolutionary specification
   workflow end to end. *)

open Seed_util
open Seed_schema
open Helpers
module S = Spades_tool.Spades
module SR = Spades_tool.Spades_raw
module DB = Seed_core.Database

let test_vague_entry () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Alarms" ~description:"Alarms are things" ()) in
  let _ = ok (S.note_thing t "AlarmHandler" ()) in
  let m = S.maturity t in
  Alcotest.(check int) "two vague things" 2 m.S.things;
  Alcotest.(check bool) "incomplete" false (S.is_implementable t);
  (* the description landed *)
  let db = S.db t in
  Alcotest.(check bool) "description" true (DB.resolve db "Alarms.Description" <> None)

let test_duplicate_thing () =
  let t = S.create () in
  let _ = ok (S.note_thing t "X" ()) in
  check_err "dup" is_duplicate (S.note_thing t "X" ())

let test_progressive_refinement () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Alarms" ()) in
  let _ = ok (S.note_thing t "Sensor" ()) in
  check_ok "classify action" (S.classify_action t "Sensor");
  let flow = ok (S.add_flow t ~data:"Alarms" ~action:"Sensor" S.Vague) in
  let m = S.maturity t in
  Alcotest.(check int) "no bare things left" 0 m.S.things;
  Alcotest.(check int) "one vague flow" 1 m.S.vague_flows;
  (* sharpen to a write *)
  check_ok "refine" (S.refine_flow t flow S.Writing);
  let m = S.maturity t in
  Alcotest.(check int) "precise now" 1 m.S.precise_flows;
  Alcotest.(check int) "vague gone" 0 m.S.vague_flows;
  let db = S.db t in
  let alarms = Option.get (DB.find_object db "Alarms") in
  Alcotest.(check (option string)) "auto-specialized" (Some "OutputData")
    (DB.class_of db alarms)

let test_direct_precise_flow () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Cfg" ()) in
  let _ = ok (S.note_thing t "Loader" ()) in
  let _ = ok (S.add_flow t ~data:"Cfg" ~action:"Loader" S.Reading) in
  let db = S.db t in
  Alcotest.(check (option string)) "input data" (Some "InputData")
    (DB.class_of db (Option.get (DB.find_object db "Cfg")))

let test_conflicting_refinement_fails () =
  let t = S.create () in
  let _ = ok (S.note_thing t "D" ()) in
  let _ = ok (S.note_thing t "A" ()) in
  let _ = ok (S.add_flow t ~data:"D" ~action:"A" S.Writing) in
  (* D is now OutputData written by A; reading it would need InputData *)
  check_err "cannot be input too"
    (function
      | Seed_error.Membership_violation _ | Seed_error.Not_in_generalization _ -> true
      | _ -> false)
    (S.add_flow t ~data:"D" ~action:"A" S.Reading)

let test_texts_and_keywords () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Alarms" ()) in
  let _ =
    ok
      (S.add_text t ~data:"Alarms"
         ~body:"Alarms are represented in an alarm display matrix"
         ~selector:"Representation" ())
  in
  check_ok "kw1" (S.add_keyword t "Alarms" "Alarmhandling");
  check_ok "kw2" (S.add_keyword t "Alarms" "Display");
  let db = S.db t in
  Alcotest.(check bool) "selector" true
    (DB.resolve db "Alarms.Text[0].Selector" <> None);
  Alcotest.(check bool) "kw value" true
    (match DB.resolve db "Alarms.Keywords[1]" with
    | Some id -> DB.get_value db id = Some (Value.String "Display")
    | None -> false)

let test_containment_tree () =
  let t = S.create () in
  List.iter (fun n -> ignore (ok (S.note_thing t n ()))) [ "Main"; "Init"; "Loop" ];
  let _ = ok (S.contain t ~container:"Main" ~action:"Init") in
  let _ = ok (S.contain t ~container:"Main" ~action:"Loop") in
  check_err "no cycles" is_cycle (S.contain t ~container:"Init" ~action:"Main");
  check_err "one container" is_cardinality
    (S.contain t ~container:"Loop" ~action:"Init")

let test_set_revised () =
  let t = S.create () in
  let _ = ok (S.note_thing t "X" ()) in
  check_ok "revised" (S.set_revised t "X" { Value.year = 1986; month = 2; day = 5 });
  let db = S.db t in
  Alcotest.(check bool) "stored" true (DB.resolve db "X.Revised" <> None);
  (* the single sub-object is replaced, not added *)
  check_ok "revised again" (S.set_revised t "X" { Value.year = 1986; month = 3; day = 1 });
  Alcotest.(check bool) "replaced" true
    (DB.get_value db (Option.get (DB.resolve db "X.Revised"))
    = Some (Value.Date { Value.year = 1986; month = 3; day = 1 }))

let test_maturity_progression_to_implementable () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Alarms" ()) in
  let _ = ok (S.note_thing t "Handler" ()) in
  Alcotest.(check bool) "not implementable" false (S.is_implementable t);
  let flow = ok (S.add_flow t ~data:"Alarms" ~action:"Handler" S.Vague) in
  Alcotest.(check bool) "still vague flow" false (S.is_implementable t);
  check_ok "refine" (S.refine_flow t flow S.Reading);
  (* Alarms:InputData read by Handler — Access minimum met, nothing vague *)
  Alcotest.(check bool) "implementable" true (S.is_implementable t);
  Alcotest.(check int) "no diagnostics" 0 (List.length (S.maturity t).S.diagnostics)

let test_milestones_are_versions () =
  let t = S.create () in
  let _ = ok (S.note_thing t "Alarms" ()) in
  let v1 = ok (S.save_milestone t) in
  check_ok "classify" (S.classify_data t "Alarms");
  let v2 = ok (S.save_milestone t) in
  Alcotest.(check string) "v1" "1.0" (Version_id.to_string v1);
  Alcotest.(check string) "v2" "2.0" (Version_id.to_string v2);
  let db = S.db t in
  ok (DB.select_version db (Some v1));
  Alcotest.(check (option string)) "history preserved" (Some "Thing")
    (DB.class_of db (Option.get (DB.find_object db "Alarms")));
  ok (DB.select_version db None)

let test_spades_raw_equivalent_workload () =
  (* the raw backend accepts the session benchmark S1 drives through
     both backends (without any guarantees: test_baseline's raw store
     case shows it checks nothing) *)
  let t = SR.create () in
  SR.note_thing t "Alarms" ~description:"d" ();
  SR.note_thing t "Sensor" ();
  SR.add_flow t ~data:"Alarms" ~action:"Sensor" S.Vague;
  Alcotest.(check int) "flows" 1 (SR.flow_count t);
  SR.refine_flow t ~data:"Alarms" ~action:"Sensor" S.Writing;
  SR.add_keyword t "Alarms" "bench";
  Alcotest.(check int) "objects" 2 (SR.object_count t);
  (* refinement rewrites the triple in place rather than adding one *)
  Alcotest.(check int) "flows after refine" 1 (SR.flow_count t)

let () =
  Alcotest.run "spades"
    [
      ( "entry",
        [
          tc "vague entry" test_vague_entry;
          tc "duplicates" test_duplicate_thing;
          tc "texts and keywords" test_texts_and_keywords;
          tc "revised dates" test_set_revised;
        ] );
      ( "refinement",
        [
          tc "progressive" test_progressive_refinement;
          tc "direct precise" test_direct_precise_flow;
          tc "conflicts surface" test_conflicting_refinement_fails;
          tc "containment" test_containment_tree;
        ] );
      ( "maturity",
        [
          tc "to implementable" test_maturity_progression_to_implementable;
          tc "milestones" test_milestones_are_versions;
        ] );
      ( "raw backend", [ tc "same workload, no guarantees" test_spades_raw_equivalent_workload ] );
    ]
