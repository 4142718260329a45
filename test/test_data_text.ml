(* Data import/export: roundtrips, values, patterns, error paths. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module DT = Seed_core.Data_text

let populated () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"OutputData" ~name:"Alarms" ()) in
  let sensor = ok (DB.create_object db ~cls:"Action" ~name:"Sensor" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Description"
         ~value:(Value.String "alarm \"store\"\nwith newline") ())
  in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _ =
    ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ())
  in
  let _ =
    ok
      (DB.create_sub_object db ~parent:alarms ~role:"Keywords"
         ~value:(Value.String "Alarmhandling") ())
  in
  let _ =
    ok
      (DB.create_sub_object db ~parent:sensor ~role:"Revised"
         ~value:(Value.date 1986 2 5) ())
  in
  let w = ok (DB.create_relationship db ~assoc:"Write" ~endpoints:[ alarms; sensor ] ()) in
  check_ok "attr" (DB.set_rel_attr db w "NumberOfWrites" (Some (Value.Int 3)));
  check_ok "attr2" (DB.set_rel_attr db w "OnError" (Some (Value.Enum "repeat")));
  (* a pattern family *)
  let po = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:po ~role:"Description"
         ~value:(Value.String "std") ())
  in
  let real = ok (DB.create_object db ~cls:"Data" ~name:"Real" ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:po ~inheritor:real);
  let _ =
    ok
      (DB.create_relationship db ~assoc:"Access" ~endpoints:[ po; sensor ]
         ~pattern:true ())
  in
  (* names that are not identifiers are written as strings *)
  let ab = ok (DB.create_object db ~cls:"Action" ~name:"a-b" ()) in
  let lives = ok (DB.create_object db ~cls:"Data" ~name:"9lives" ~pattern:true ()) in
  let weird = ok (DB.create_object db ~cls:"Data" ~name:"Weird\"Name" ()) in
  check_ok "inherit 9lives" (DB.inherit_pattern db ~pattern:lives ~inheritor:weird);
  let _ = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ weird; ab ] ()) in
  db

let test_export_shape () =
  let db = populated () in
  let text = DT.export_view (DB.view db) in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "object header" true (contains "object Alarms : OutputData {");
  Alcotest.(check bool) "escaped string" true
    (contains "Description = \"alarm \\\"store\\\"\\nwith newline\"");
  Alcotest.(check bool) "date" true (contains "Revised = 1986-02-05");
  Alcotest.(check bool) "pattern header" true (contains "pattern Template : Data {");
  Alcotest.(check bool) "inherits" true (contains "inherits (Template)");
  Alcotest.(check bool) "rel" true (contains "rel Write (Alarms, Sensor) {");
  Alcotest.(check bool) "attr" true (contains "NumberOfWrites = 3");
  Alcotest.(check bool) "enum attr" true (contains "OnError = repeat");
  Alcotest.(check bool) "pattern rel" true
    (contains "pattern rel Access (Template, Sensor)");
  Alcotest.(check bool) "quoted names" true
    (contains "object \"Weird\\\"Name\" : Data inherits (\"9lives\")");
  Alcotest.(check bool) "quoted endpoints" true
    (contains "rel Access (\"Weird\\\"Name\", \"a-b\")")

let test_roundtrip () =
  let db = populated () in
  let text = DT.export_view (DB.view db) in
  let db2 = fresh_db () in
  check_ok "import" (DT.import db2 text);
  let text2 = DT.export_view (DB.view db2) in
  Alcotest.(check string) "stable roundtrip" text text2;
  (* and the semantics carried over *)
  Alcotest.(check int) "objects" (DB.object_count db) (DB.object_count db2);
  let real = Option.get (DB.find_object db2 "Real") in
  Alcotest.(check int) "inheritance restored" 1
    (List.length
       (Seed_core.View.children_v (DB.view db2)
          (Seed_core.View.vitem_real
             (Option.get (Seed_core.Db_state.find_item (DB.raw db2) real)))))

let test_import_is_checked () =
  let db = fresh_db () in
  check_err "unknown class"
    (function Seed_error.Unknown_class _ -> true | _ -> false)
    (DT.import db "object X : Nope\n");
  check_err "bad membership" is_membership
    (DT.import db
       "object D : Thing\nobject A : Action\nrel Read (D, A)\n");
  check_err "duplicate" is_duplicate
    (DT.import db "object A : Action\nobject A : Action\n")

let test_import_syntax_errors () =
  let db = fresh_db () in
  List.iter
    (fun src ->
      check_err src
        (function Seed_error.Invalid_operation _ -> true | _ -> false)
        (DT.import db src))
    [
      "object";
      "object X";
      "object X : C {";
      "wibble Y : C";
      "object X : C = @";
      "rel R (A";
      "object X : C { Sub = \"unterminated }";
      "object X : C { Sub = 1986-13 }";
    ];
  (* (source, line the error names): [*] and [..] are schema tokens
     only; a bad number is one token; a string stays on one line *)
  List.iter
    (fun (src, line) ->
      check_err src
        (function
          | Seed_error.Invalid_operation m ->
            contains m (Printf.sprintf "data text, line %d:" line)
          | _ -> false)
        (DT.import db src))
    [
      ("object X : C = *", 1);
      ("object X : C { Text[0..1] }", 1);
      ("object X : C = 2x", 1);
      ("object X : C = \"a\\\nb\"", 1);
      ("object A : Action\n// two\nobject B = 1\n", 3);
      ("object A : Action\n\nobject X : Data { Revised = 1986-02-31 }", 3);
    ]

let test_value_forms () =
  let flags = Value_type.Enum [ "true"; "nan"; "x" ] in
  (* (role, content type, value): each value is exported and imported
     back into a class of that type; the bare words true, nan and
     infinity are read by the type of the class they land in *)
  let forms =
    [
      ("I", Value_type.Int, Value.Int (-42));
      ("F", Value_type.Float, Value.Float 2.5);
      ("Fneg", Value_type.Float, Value.Float (-2.5));
      ("Fnan", Value_type.Float, Value.Float Float.nan);
      ("Finf", Value_type.Float, Value.Float Float.infinity);
      ("Fneginf", Value_type.Float, Value.Float Float.neg_infinity);
      ("B", Value_type.Bool, Value.Bool true);
      ("D", Value_type.Date, Value.date 2000 2 29);
      ("S", Value_type.String, Value.String "tab\there \"quoted\"");
      ("E", Value_type.Enum [ "on"; "off" ], Value.Enum "off");
      ("Etrue", flags, Value.Enum "true");
      ("Enan", flags, Value.Enum "nan");
    ]
  in
  (* (role, literal as written in a file, value it denotes) *)
  let literals =
    [
      ("F", "-2.5", Value.Float (-2.5));
      ("F", "0x1.4p+1", Value.Float 2.5);
      ("F", "-0x1.4p+1", Value.Float (-2.5));
      ("F", "1e3", Value.Float 1000.);
      ("F", "3", Value.Float 3.);
      ("F", "-3", Value.Float (-3.));
      ("I", "0x10", Value.Int 16);
      ("D", "1986-02-05", Value.date 1986 2 5);
      ("S", {|"a\tb\"c\\"|}, Value.String "a\tb\"c\\");
      ("Enan", "nan", Value.Enum "nan");
    ]
  in
  let schema =
    Schema.of_defs_exn
      (Class_def.v [ "Box" ]
      :: List.map
           (fun (role, ty, _) ->
             Class_def.v ~card:Cardinality.opt ~content:ty [ "Box"; role ])
           forms)
      [
        Assoc_def.v
          ~attrs:
            [ Assoc_def.attr "A" Value_type.Float; Assoc_def.attr "Q" flags ]
          "Pair"
          [ Assoc_def.role "l" "Box"; Assoc_def.role "r" "Box" ];
      ]
  in
  let same a b =
    match (a, b) with
    | Some (Value.Float x), Some (Value.Float y) when Float.is_nan x -> Float.is_nan y
    | _ -> a = b
  in
  let get db role = DB.get_value db (Option.get (DB.resolve db ("b." ^ role))) in
  let db = DB.create schema in
  let b = ok (DB.create_object db ~cls:"Box" ~name:"b" ()) in
  List.iter
    (fun (role, _, v) ->
      ignore (ok (DB.create_sub_object db ~parent:b ~role ~value:v ())))
    forms;
  (* relationship attributes are read by their declared type too *)
  let c = ok (DB.create_object db ~cls:"Box" ~name:"c" ()) in
  let pair = ok (DB.create_relationship db ~assoc:"Pair" ~endpoints:[ b; c ] ()) in
  check_ok "A" (DB.set_rel_attr db pair "A" (Some (Value.Float Float.infinity)));
  check_ok "Q" (DB.set_rel_attr db pair "Q" (Some (Value.Enum "nan")));
  let text = DT.export_view (DB.view db) in
  let db2 = DB.create schema in
  check_ok "import" (DT.import db2 text);
  Alcotest.(check string) "stable roundtrip" text (DT.export_view (DB.view db2));
  List.iter
    (fun (role, _, v) ->
      Alcotest.(check bool) role true (same (get db2 role) (Some v)))
    forms;
  List.iter
    (fun (role, lit, v) ->
      let db3 = DB.create schema in
      let src =
        Printf.sprintf "// a comment\nobject b : Box { // after a brace\n  %s = %s // after %s\n}\n"
          role lit lit
      in
      check_ok src (DT.import db3 src);
      Alcotest.(check bool) lit true (same (get db3 role) (Some v)))
    literals;
  (* an integer literal in a FLOAT relationship attribute *)
  let db4 = DB.create schema in
  check_ok "integer attribute"
    (DT.import db4 "object b : Box\nobject c : Box\nrel Pair (b, c) { A = 3 }\n");
  let pair4 = List.hd (DB.relationships db4 (Option.get (DB.resolve db4 "b"))) in
  Alcotest.(check bool) "A = 3" true (DB.rel_attr db4 pair4 "A" = Some (Value.Float 3.))

(* a value given as text for a place of a known content type, as
   [seed set] reads it *)
let test_parse_literal () =
  let check ty text v =
    match (DT.parse_literal (Some ty) text, v) with
    | Ok (Value.Float x), Value.Float y -> Alcotest.(check bool) text true (Float.equal x y)
    | Ok got, _ -> Alcotest.(check bool) text true (got = v)
    | Error e, _ -> Alcotest.failf "%s: %s" text (Seed_error.to_string e)
  in
  check Value_type.Date "1986-02-05" (Value.date 1986 2 5);
  check (Value_type.Enum [ "on"; "off" ]) "off" (Value.Enum "off");
  check Value_type.Int "42" (Value.Int 42);
  check Value_type.Float "nan" (Value.Float Float.nan);
  check Value_type.Float "3" (Value.Float 3.);
  check Value_type.String "42" (Value.String "42");
  check_err "impossible date"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DT.parse_literal (Some Value_type.Date) "1986-02-31");
  check_err "two literals"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DT.parse_literal (Some Value_type.Int) "1 2")

let test_export_respects_versions () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let _v2 = ok (DB.create_version db) in
  let old_text = DT.export_view (ok (DB.view_at db v1)) in
  let now_text = DT.export_view (DB.view db) in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "old class" true (contains old_text "object A : Thing");
  Alcotest.(check bool) "new class" true (contains now_text "object A : Data")

(* randomised roundtrip: build a random database through the API, then
   export → import → export must be a fixed point *)
let random_ops_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 40)
    (frequency
       [
         (4, map2 (fun i c -> `Obj (i, c)) (int_bound 20)
            (oneofl [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]));
         (1, map (fun i -> `Pattern i) (int_bound 20));
         (3, map2 (fun p s -> `Sub (p, s)) (int_bound 20)
            (oneofl [ "Description"; "Keywords"; "Revised" ]));
         (2, map2 (fun a b -> `Rel (a, b)) (int_bound 20) (int_bound 20));
         (1, map2 (fun p i -> `Inherit (p, i)) (int_bound 20) (int_bound 20));
       ])

let prop_random_roundtrip =
  qcheck_case ~count:80 "random databases roundtrip" random_ops_gen (fun ops ->
      let db = fresh_db () in
      let objects = ref [] and patterns = ref [] in
      let pick xs i =
        match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))
      in
      List.iter
        (fun op ->
          match op with
          | `Obj (i, cls) -> (
            match
              DB.create_object db ~cls ~name:(Printf.sprintf "o%d" i) ()
            with
            | Ok id -> objects := id :: !objects
            | Error _ -> ())
          | `Pattern i -> (
            match
              DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "p%d" i)
                ~pattern:true ()
            with
            | Ok id -> patterns := id :: !patterns
            | Error _ -> ())
          | `Sub (p, role) -> (
            match pick (!objects @ !patterns) p with
            | Some parent ->
              let value =
                if role = "Revised" then Value.date 1986 2 5
                else Value.String "v"
              in
              ignore (DB.create_sub_object db ~parent ~role ~value ())
            | None -> ())
          | `Rel (a, b) -> (
            match (pick !objects a, pick !objects b) with
            | Some x, Some y ->
              ignore
                (DB.create_relationship db ~assoc:"Access" ~endpoints:[ x; y ] ())
            | _ -> ())
          | `Inherit (p, i) -> (
            match (pick !patterns p, pick !objects i) with
            | Some pattern, Some inheritor ->
              ignore (DB.inherit_pattern db ~pattern ~inheritor)
            | _ -> ()))
        ops;
      let text = DT.export_view (DB.view db) in
      let db2 = fresh_db () in
      match DT.import db2 text with
      | Error _ -> false
      | Ok () -> String.equal text (DT.export_view (DB.view db2)))

let test_import_empty_and_comments () =
  let db = fresh_db () in
  check_ok "empty" (DT.import db "");
  check_ok "only comments" (DT.import db "// nothing here\n// at all\n");
  Alcotest.(check int) "no objects" 0 (DB.object_count db)

let () =
  Alcotest.run "data_text"
    [
      ( "export",
        [
          tc "shape" test_export_shape;
          tc "versions" test_export_respects_versions;
        ] );
      ( "roundtrip",
        [
          tc "full" test_roundtrip;
          tc "value forms" test_value_forms;
          prop_random_roundtrip;
        ] );
      ( "import",
        [
          tc "consistency checked" test_import_is_checked;
          tc "syntax errors" test_import_syntax_errors;
          tc "empty input" test_import_empty_and_comments;
          tc "one literal" test_parse_literal;
        ] );
    ]
