(* Graphviz export. *)

open Helpers
module DB = Seed_core.Database
module Dot = Seed_core.Dot

let setup () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"Sensor" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:d ~role:"Description"
         ~value:(Seed_schema.Value.String "store") ())
  in
  let _ = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; a ] ()) in
  db

let test_basic_graph () =
  let db = setup () in
  let dot = Dot.of_view (DB.view db) in
  Alcotest.(check bool) "digraph" true (contains dot "digraph seed {");
  Alcotest.(check bool) "alarm node" true (contains dot "Alarms : Data");
  Alcotest.(check bool) "value line" true (contains dot "Description = \\\"store\\\"");
  Alcotest.(check bool) "edge" true (contains dot "[label=\"Access\"]");
  Alcotest.(check bool) "closed" true (contains dot "}\n")

let test_subs_can_be_omitted () =
  let db = setup () in
  let dot = Dot.of_view ~include_subs:false (DB.view db) in
  Alcotest.(check bool) "no value line" false (contains dot "Description")

let test_patterns_rendered () =
  let db = fresh_db () in
  let common = ok (DB.create_object db ~cls:"Action" ~name:"Common" ()) in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"PO" ~pattern:true ()) in
  let _ =
    ok
      (DB.create_relationship db ~assoc:"Access" ~endpoints:[ po; common ]
         ~pattern:true ())
  in
  let v1 = ok (DB.create_object db ~cls:"Data" ~name:"V1" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:v1);
  let dot = Dot.of_view (DB.view db) in
  Alcotest.(check bool) "pattern node dashed" true
    (contains dot "style=dashed, color=gray40];");
  Alcotest.(check bool) "inherits edge" true (contains dot "label=\"inherits\"");
  Alcotest.(check bool) "virtual rel" true (contains dot "taillabel=\"inherited\"");
  let plain = Dot.of_view ~include_patterns:false (DB.view db) in
  Alcotest.(check bool) "patterns omitted" false (contains plain "PO")

let test_escaping () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"Weird\"Name" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:d ~role:"Description"
         ~value:(Seed_schema.Value.String "line\nbreak") ())
  in
  let dot = Dot.of_view (DB.view db) in
  Alcotest.(check bool) "quote escaped" true (contains dot "Weird\\\"Name");
  Alcotest.(check bool) "no raw newline in label" false (contains dot "line\nbreak")

let () =
  Alcotest.run "dot"
    [
      ( "export",
        [
          tc "basic graph" test_basic_graph;
          tc "subs omitted" test_subs_can_be_omitted;
          tc "patterns" test_patterns_rendered;
          tc "escaping" test_escaping;
        ] );
    ]
