(* The textual schema language: parsing, printing, roundtrips. *)

open Seed_schema
open Helpers

let fig3_text =
  {|
// the Fig. 3 schema
class Thing covering {
  Description : STRING [0..1]
  Revised     : DATE   [0..1]
  Keywords    : STRING [0..8]
}
class Data isa Thing {
  Text [0..16] {
    Body     : STRING [1..1]
    Selector : STRING [0..1]
  }
}
class InputData isa Data
class OutputData isa Data
class Action isa Thing {
  ErrorHandling : ENUM(abort,repeat) [0..1]
}

assoc Access covering (from : Data [0..*], by : Action [1..*])
assoc Read isa Access (from : InputData, by : Action)
assoc Write isa Access (to : OutputData, by : Action) {
  NumberOfWrites : INT required
  OnError : ENUM(abort,repeat)
}
assoc Contained acyclic (contained : Action [0..1], container : Action)
|}

let test_parse_fig3 () =
  let s = ok (Schema_text.parse fig3_text) in
  Alcotest.(check int) "classes" 12 (List.length (Schema.classes s));
  Alcotest.(check int) "assocs" 4 (List.length (Schema.assocs s));
  let text = Option.get (Schema.find_class s "Data.Text") in
  Alcotest.(check bool) "text card" true
    (Cardinality.equal text.Class_def.card (Cardinality.between 0 16));
  let body = Option.get (Schema.find_class s "Data.Text.Body") in
  Alcotest.(check bool) "body content" true
    (body.Class_def.content = Some Value_type.String);
  let thing = Option.get (Schema.find_class s "Thing") in
  Alcotest.(check bool) "covering" true thing.Class_def.covering;
  let access = Option.get (Schema.find_assoc s "Access") in
  Alcotest.(check bool) "role card" true
    (Cardinality.equal (List.hd access.Assoc_def.roles).Assoc_def.card
       (Cardinality.at_least 0));
  let contained = Option.get (Schema.find_assoc s "Contained") in
  Alcotest.(check bool) "acyclic" true contained.Assoc_def.acyclic;
  let write = Option.get (Schema.find_assoc s "Write") in
  Alcotest.(check int) "write attrs" 2 (List.length write.Assoc_def.attrs);
  Alcotest.(check bool) "required" true
    (match Schema.resolve_attr s ~assoc:"Write" ~attr:"NumberOfWrites" with
    | Ok a -> a.Assoc_def.required
    | Error _ -> false)

let test_parsed_schema_equals_builtin () =
  (* the textual Fig. 3 schema behaves like the programmatic one *)
  let s = ok (Schema_text.parse fig3_text) in
  let builtin = fig3_schema () in
  Alcotest.(check (list string)) "same class names"
    (List.map Class_def.name (Schema.classes builtin))
    (List.map Class_def.name (Schema.classes s));
  Alcotest.(check (list string)) "same assoc names"
    (List.map (fun (a : Assoc_def.t) -> a.Assoc_def.name) (Schema.assocs builtin))
    (List.map (fun (a : Assoc_def.t) -> a.Assoc_def.name) (Schema.assocs s))

let structurally_equal a b =
  Schema.classes a = Schema.classes b && Schema.assocs a = Schema.assocs b

let test_roundtrip_fig3 () =
  let s = ok (Schema_text.parse fig3_text) in
  let printed = Schema_text.print s in
  let s2 = ok (Schema_text.parse printed) in
  Alcotest.(check bool) "roundtrip" true (structurally_equal s s2)

let test_roundtrip_builtin_schemas () =
  List.iter
    (fun s ->
      let s2 = ok (Schema_text.parse (Schema_text.print s)) in
      Alcotest.(check bool) "roundtrip" true (structurally_equal s s2))
    [ fig3_schema (); fig2_schema () ]

let test_procedures_roundtrip () =
  let src =
    {|
class Doc procedures (audit, log) {
  Pages : INT [0..1] procedures (pagecheck)
}
class Other
assoc Refers procedures (refcheck) (from : Doc, to : Other)
|}
  in
  let s = ok (Schema_text.parse src) in
  let doc = Option.get (Schema.find_class s "Doc") in
  Alcotest.(check (list string)) "class procs" [ "audit"; "log" ]
    doc.Class_def.procedures;
  let pages = Option.get (Schema.find_class s "Doc.Pages") in
  Alcotest.(check (list string)) "member procs" [ "pagecheck" ]
    pages.Class_def.procedures;
  let refers = Option.get (Schema.find_assoc s "Refers") in
  Alcotest.(check (list string)) "assoc procs" [ "refcheck" ]
    refers.Assoc_def.procedures;
  let s2 = ok (Schema_text.parse (Schema_text.print s)) in
  Alcotest.(check bool) "roundtrip" true (structurally_equal s s2)

(* random well-formed schemas roundtrip through print/parse *)
let schema_gen =
  let open QCheck2.Gen in
  let card =
    oneof
      [
        return Cardinality.any;
        return Cardinality.opt;
        return Cardinality.one;
        map2
          (fun lo extra -> Cardinality.between lo (lo + extra))
          (int_bound 2) (int_bound 8);
        map (fun lo -> Cardinality.at_least lo) (int_bound 3);
      ]
  in
  let content =
    opt
      (oneofl
         [
           Value_type.String;
           Value_type.Int;
           Value_type.Float;
           Value_type.Bool;
           Value_type.Date;
           Value_type.Enum [ "a"; "b"; "c" ];
         ])
  in
  let* n_classes = int_range 1 4 in
  let class_names = List.init n_classes (fun i -> Printf.sprintf "C%d" i) in
  (* random generalization forest: class i may have a super among 0..i-1 *)
  let* supers =
    flatten_l
      (List.mapi
         (fun i _ -> if i = 0 then return None else opt (int_bound (i - 1)))
         class_names)
  in
  let has_spec i = List.exists (fun s -> s = Some i) supers in
  let* coverings =
    flatten_l
      (List.mapi
         (fun i _ -> if has_spec i then bool else return false)
         class_names)
  in
  (* members: distinct role names per class, one optional nesting level *)
  let member cls j =
    let* c = card in
    let* ty = content in
    let* nested = bool in
    let path = [ cls; Printf.sprintf "M%d" j ] in
    let def = Class_def.v ~card:c ?content:ty path in
    if nested then
      let* c2 = card in
      let* ty2 = content in
      return [ def; Class_def.v ~card:c2 ?content:ty2 (path @ [ "N0" ]) ]
    else return [ def ]
  in
  let* member_lists =
    flatten_l
      (List.map
         (fun cls ->
           let* k = int_bound 2 in
           let* ms = flatten_l (List.init k (member cls)) in
           return (List.concat ms))
         class_names)
  in
  let classes =
    List.concat
      (List.mapi
         (fun i cls ->
           let super = Option.map (fun s -> List.nth class_names s) (List.nth supers i) in
           Class_def.v ?super ~covering:(List.nth coverings i) [ cls ]
           :: List.nth member_lists i)
         class_names)
  in
  (* associations over the top-level classes *)
  let* n_assocs = int_bound 2 in
  let* assocs =
    flatten_l
      (List.init n_assocs (fun i ->
           let* t1 = oneofl class_names in
           let* t2 = oneofl class_names in
           let* c1 = card in
           let* c2 = card in
           let* acyclic = bool in
           let* with_attr = bool in
           (* ACYCLIC needs both roles in one hierarchy: use t1 twice *)
           let t2 = if acyclic then t1 else t2 in
           let attrs =
             if with_attr then
               [ Assoc_def.attr ~required:true "W" Value_type.Int ]
             else []
           in
           return
             (Assoc_def.v ~attrs ~acyclic
                (Printf.sprintf "A%d" i)
                [
                  Assoc_def.role ~card:c1 "x" t1;
                  Assoc_def.role ~card:c2 "y" t2;
                ])))
  in
  return (classes, assocs)

let prop_random_schema_roundtrip =
  qcheck_case ~count:200 "random schemas roundtrip" schema_gen
    (fun (classes, assocs) ->
      match Schema.of_defs classes assocs with
      | Error _ -> true (* generator may produce invalid combinations *)
      | Ok s -> (
        match Schema_text.parse (Schema_text.print s) with
        | Error _ -> false
        | Ok s2 -> structurally_equal s s2))

let expect_syntax_error src =
  check_err src
    (function
      | Seed_util.Seed_error.Schema_violation _
      | Seed_util.Seed_error.Invalid_cardinality _
      | Seed_util.Seed_error.Unknown_class _ ->
        true
      | _ -> false)
    (Schema_text.parse src)

let test_syntax_errors () =
  List.iter expect_syntax_error
    [
      "classs Thing";
      "class";
      "class Thing {";
      "class Thing { Description : NOPE }";
      "class Thing { Description : STRING [2..1] }";
      "class Thing { Description : STRING [1..] }";
      "assoc A (x : T)";
      "assoc A (x : T, y : T" (* unclosed *);
      "class A isa";
      "class A @";
      "assoc A (x : Missing, y : Missing)" (* unknown classes *);
    ];
  (* (source, line the error names): the data language's literals lex
     but the schema grammar has no place for them *)
  List.iter
    (fun (src, line) ->
      check_err src
        (function
          | Seed_util.Seed_error.Schema_violation m ->
            contains m (Printf.sprintf "line %d:" line)
          | _ -> false)
        (Schema_text.parse src))
    [
      ("class Thing { Description : \"STRING\" }", 1);
      ("class Thing { Description : STRING [0..1.5] }", 1);
      ("class Thing { Description : STRING [0 = 1] }", 1);
      ("class Thing { Description : STRING [0..99999999999999999999] }", 1);
      ("class Thing {\n  Description : STRING\n  Revised [-1..1]\n}", 3);
    ]

let test_semantic_validation_applies () =
  (* parse errors are not the only gate: full schema validation runs *)
  expect_syntax_error "class A isa B\nclass B isa A";
  expect_syntax_error "class A covering" (* covering without specialization *)

let test_comments_and_whitespace () =
  let src =
    "// leading comment\nclass   A// trailing\n{\n  // inner\n  B : STRING [0..0x10]\n}\n"
  in
  let s = ok (Schema_text.parse src) in
  (* an integer may be written in hex wherever one is expected *)
  Alcotest.(check bool) "parsed" true
    (match Schema.find_class s "A.B" with
    | Some b -> Cardinality.equal b.Class_def.card (Cardinality.between 0 16)
    | None -> false)

let test_loaded_schema_drives_database () =
  let s = ok (Schema_text.parse fig3_text) in
  let db = Seed_core.Database.create s in
  let module DB = Seed_core.Database in
  let t = ok (DB.create_object db ~cls:"Thing" ~name:"Alarms" ()) in
  check_ok "reclassify" (DB.reclassify db t ~to_:"Data");
  Alcotest.(check bool) "works" true (DB.find_object db "Alarms" = Some t)

let () =
  Alcotest.run "schema_text"
    [
      ( "parsing",
        [
          tc "fig 3 text" test_parse_fig3;
          tc "equals builtin" test_parsed_schema_equals_builtin;
          tc "comments" test_comments_and_whitespace;
          tc "drives a database" test_loaded_schema_drives_database;
        ] );
      ( "roundtrips",
        [
          tc "fig 3" test_roundtrip_fig3;
          tc "builtin schemas" test_roundtrip_builtin_schemas;
          tc "procedures" test_procedures_roundtrip;
          prop_random_schema_roundtrip;
        ] );
      ( "errors",
        [
          tc "syntax" test_syntax_errors;
          tc "semantic validation" test_semantic_validation_applies;
        ] );
    ]
