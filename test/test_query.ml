(* Query combinators (the complex-retrieval extension) and their
   interaction with generalization, undefined values, and patterns. *)

open Seed_schema
open Helpers
module DB = Seed_core.Database
module Q = Seed_core.Query
module View = Seed_core.View
module Item = Seed_core.Item

let setup () =
  let db = fresh_db () in
  let mk name cls = ok (DB.create_object db ~cls ~name ()) in
  let alarms = mk "Alarms" "OutputData" in
  let events = mk "Events" "InputData" in
  let config = mk "Config" "Data" in
  let sensor = mk "Sensor" "Action" in
  let handler = mk "AlarmHandler" "Action" in
  let misc = mk "Misc" "Thing" in
  let w = ok (DB.create_relationship db ~assoc:"Write" ~endpoints:[ alarms; sensor ] ()) in
  let r = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ events; handler ] ()) in
  let a = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ config; handler ] ()) in
  ignore (w, r, a);
  (db, alarms, events, config, sensor, handler, misc)

let names v items = List.filter_map (View.full_name v) items

let test_in_class_vs_is_a () =
  let db, _, _, _, _, _, _ = setup () in
  let v = DB.view db in
  Alcotest.(check (list string)) "exact Data" [ "Config" ]
    (names v (Q.select v (Q.in_class "Data")));
  Alcotest.(check (list string)) "is_a Data" [ "Alarms"; "Config"; "Events" ]
    (names v (Q.select v (Q.is_a "Data")));
  Alcotest.(check int) "is_a Thing = all" 6 (Q.count v (Q.is_a "Thing"))

let test_name_predicates () =
  let db, _, _, _, _, _, _ = setup () in
  let v = DB.view db in
  Alcotest.(check (list string)) "name_is" [ "Alarms" ]
    (names v (Q.select v (Q.name_is "Alarms")));
  Alcotest.(check (list string)) "unknown name" []
    (names v (Q.select v (Q.name_is "Alarm")))

let test_combinators () =
  let db, _, _, _, _, _, _ = setup () in
  let v = DB.view db in
  Alcotest.(check (list string)) "and" [ "Events" ]
    (names v (Q.select v Q.(is_a "Data" &&& in_class "InputData")));
  Alcotest.(check (list string)) "or includes both" [ "Alarms"; "Events" ]
    (names v (Q.select v Q.(name_is "Events" ||| in_class "OutputData" ||| name_is "Sensor")
             |> List.filter (Q.test (Q.is_a "Data") v)));
  Alcotest.(check (list string)) "not" [ "Misc" ]
    (names v (Q.select v Q.(not_ (is_a "Data") &&& not_ (is_a "Action"))))

let test_undefined_matches_nothing () =
  (* "when the database is searched for data that meet certain selection
     criteria, an undefined object matches nothing" *)
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let desc = ok (DB.create_sub_object db ~parent:d ~role:"Description" ()) in
  let v = DB.view db in
  Alcotest.(check int) "undefined value matches nothing" 0
    (Q.count v (Q.contains "" ""));
  check_ok "define" (DB.set_value db desc (Some (Value.String "x")));
  Alcotest.(check int) "defined matches" 1 (Q.count v (Q.contains "" ""))

let test_has_child_and_value () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let _ = ok (DB.create_sub_object db ~parent:d ~role:"Keywords" ~value:(Value.String "alarm") ()) in
  let _e = ok (DB.create_object db ~cls:"Data" ~name:"E" ()) in
  let v = DB.view db in
  Alcotest.(check (list string)) "sub-object value" [ "D" ]
    (names v (Q.select v (Q.contains "Thing.Keywords" "alarm")));
  Alcotest.(check (list string)) "other path" []
    (names v (Q.select v (Q.contains "Thing.Description" "alarm")))

let test_is_incomplete_predicate () =
  let db = fresh_db () in
  let _d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let v = DB.view db in
  (* the Action lacks its Access (min 1) *)
  Alcotest.(check bool) "action incomplete" true
    (List.mem "A" (names v (Q.select v Q.is_incomplete)));
  let d2 = ok (DB.create_object db ~cls:"InputData" ~name:"I" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ d2; a ] ()) in
  Alcotest.(check bool) "action complete now" false
    (List.mem "A" (names v (Q.select v Q.is_incomplete)))

let test_select_rels () =
  let db, _, _, _, _, _, _ = setup () in
  let v = DB.view db in
  Alcotest.(check int) "reads" 1 (List.length (Q.select_rels v ~assoc:"Read"));
  Alcotest.(check int) "accesses include specializations" 3
    (List.length (Q.select_rels v ~assoc:"Access"))

let test_no_phantom_rows_for_undefined () =
  (* relationships exist only between defined objects: Misc, related to
     nothing, appears in no retrieved relationship *)
  let db, _, _, _, _, _, misc = setup () in
  let v = DB.view db in
  Alcotest.(check bool) "no phantom rows" false
    (List.exists
       (fun rel -> List.mem misc (DB.endpoints db rel.Item.id))
       (Q.select_rels v ~assoc:"Access"))

let test_pattern_expansion () =
  let db = fresh_db () in
  let common = ok (DB.create_object db ~cls:"Action" ~name:"Common" ()) in
  let po = ok (DB.create_object db ~cls:"Data" ~name:"PO" ~pattern:true ()) in
  let _ =
    ok
      (DB.create_relationship db ~assoc:"Access" ~endpoints:[ po; common ]
         ~pattern:true ())
  in
  let v1 = ok (DB.create_object db ~cls:"Data" ~name:"V1" ()) in
  let v2 = ok (DB.create_object db ~cls:"Data" ~name:"V2" ()) in
  check_ok "v1 joins" (DB.inherit_pattern db ~pattern:po ~inheritor:v1);
  check_ok "v2 joins" (DB.inherit_pattern db ~pattern:po ~inheritor:v2);
  let v = DB.view db in
  (* each inheritor sees the pattern relationship with itself
     substituted; the pattern relationship itself is not retrieved *)
  let expanded id =
    let item = Option.get (Seed_core.Db_state.find_item (DB.raw db) id) in
    List.map (fun (vr : View.vrel) -> vr.View.endpoints) (View.rels_v v item)
  in
  Alcotest.(check bool) "V1 expanded" true (expanded v1 = [ [ v1; common ] ]);
  Alcotest.(check bool) "V2 expanded" true (expanded v2 = [ [ v2; common ] ]);
  Alcotest.(check int) "pattern rel not retrieved" 0
    (List.length (Q.select_rels v ~assoc:"Access"))

let test_relationships_respect_versions () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"InputData" ~name:"D" ()) in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let r = ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ d; a ] ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.delete db r);
  let _v2 = ok (DB.create_version db) in
  Alcotest.(check int) "gone now" 0
    (List.length (Q.select_rels (DB.view db) ~assoc:"Read"));
  let old_view = ok (DB.view_at db v1) in
  Alcotest.(check bool) "in 1.0" true
    (List.map (fun (it : Item.t) -> it.Item.id) (Q.select_rels old_view ~assoc:"Read")
    = [ r ])

let test_queries_see_inherited_relationships () =
  (* an Action needs one Access in role [by]; an inherited pattern
     relationship supplies it *)
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let pa = ok (DB.create_object db ~cls:"Action" ~name:"PA" ~pattern:true ()) in
  let _pr =
    ok
      (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; pa ]
         ~pattern:true ())
  in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"A" ()) in
  let incomplete () = names (DB.view db) (Q.select (DB.view db) Q.is_incomplete) in
  Alcotest.(check bool) "incomplete alone" true (List.mem "A" (incomplete ()));
  check_ok "inherit" (DB.inherit_pattern db ~pattern:pa ~inheritor:a);
  Alcotest.(check bool) "inherited rel completes it" false
    (List.mem "A" (incomplete ()))

let test_queries_respect_versions () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Thing" ~name:"D" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db d ~to_:"Data");
  let _v2 = ok (DB.create_version db) in
  let old_view = ok (DB.view_at db v1) in
  let now_view = DB.view db in
  Alcotest.(check int) "was a thing" 1 (Q.count old_view (Q.in_class "Thing"));
  Alcotest.(check int) "not yet data" 0 (Q.count old_view (Q.in_class "Data"));
  Alcotest.(check int) "is data now" 1 (Q.count now_view (Q.in_class "Data"))

(* Served reads allocate in proportion to their answer: the words of one
   call after a warm-up, each against a fixed bound. An is_a select
   allocates its names array, one word a hit; a keyword search also the
   owners it fetched, in an array grown by doubling (at most four words
   a hit). An item fetched from the item table costs nothing; a box
   per item fetched, or a list between the fold and the array, costs
   two or three words a hit more. [docs n]
   holds [n] objects named in id order, [n / 4] of them [OutputData]
   (the rest [Data]), each with a description and one keyword from a
   pool of 8, so a keyword is on [n / 8] objects. *)
let docs n =
  let db = fresh_db () in
  for i = 0 to n - 1 do
    let cls = if i mod 4 = 0 then "OutputData" else "Data" in
    let d = ok (DB.create_object db ~cls ~name:(Printf.sprintf "Doc%05d" i) ()) in
    let sub role ?index text =
      ignore (ok (DB.create_sub_object db ~parent:d ~role ?index ~value:(Value.String text) ()))
    in
    sub "Description" (Printf.sprintf "report %d on the recovery of alarms" i);
    sub "Keywords" ~index:0 (Printf.sprintf "keyword%d" (i mod 8))
  done;
  (* one tier and no overlay, as an open builds it, so that a needle on
     [n / 8] objects is probed at every [n] *)
  DB.set_text_index_enabled db false;
  DB.set_text_index_enabled db true;
  DB.view db

(* [p]'s plan on [v] makes one text lookup, or scans *)
let planned v p ~indexed =
  match (Q.explain v p, indexed) with
  | Q.Indexed { texts = [ _ ]; _ }, true | Q.Scan _, false -> ()
  | _ -> Alcotest.fail "unexpected plan"

(* words allocated straight in the major heap (an array past 256
   words): major but not promoted *)
let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* the minor and direct major words of one call of [f] after a warm-up,
   the minor ones read first (reading the counters allocates) *)
let words f =
  ignore (f ());
  let m0 = direct_major () in
  let w0 = Gc.minor_words () in
  let r = Sys.opaque_identity (f ()) in
  let w = Gc.minor_words () -. w0 in
  (w +. direct_major () -. m0, r)

let under what ~bound w =
  if w >= float bound then Alcotest.failf "%s allocated %.0f words (bound %d)" what w bound

(* A needle with no hit costs its lookup whatever the store's size; a
   needle too common to probe scans, and allocates nothing per object:
   an option for each object's children set would cost two words. *)
let test_search_miss_allocation () =
  let n = 400 in
  let v = docs n in
  let miss ~indexed ~bound needle =
    let p = Q.contains "" needle in
    planned v p ~indexed;
    let w, names = words (fun () -> Q.select_names v p) in
    Alcotest.(check int) "no hit" 0 (Array.length names);
    under (Printf.sprintf "a search of %S with no hit" needle) ~bound w
  in
  miss ~indexed:true ~bound:400 "recovery of xylophones";
  miss ~indexed:false ~bound:(300 + n) "recovery on the report"

let test_is_a_allocation () =
  List.iter
    (fun n ->
      let v = docs n in
      let w, names = words (fun () -> Q.select_names v (Q.is_a "OutputData")) in
      Alcotest.(check int) "hits" (n / 4) (Array.length names);
      under (Printf.sprintf "is_a over %d hits" (n / 4)) ~bound:(150 + (2 * (n / 4))) w)
    [ 40; 400; 2000 ]

let test_keyword_allocation () =
  List.iter
    (fun n ->
      let v = docs n and p = Q.contains "Thing.Keywords" "keyword3" in
      planned v p ~indexed:true;
      let w, names = words (fun () -> Q.select_names v p) in
      Alcotest.(check int) "hits" (n / 8) (Array.length names);
      under (Printf.sprintf "a keyword search of %d hits" (n / 8)) ~bound:(200 + (6 * (n / 8))) w)
    [ 80; 800; 4000 ]

let () =
  Alcotest.run "query"
    [
      ( "predicates",
        [
          tc "in_class vs is_a" test_in_class_vs_is_a;
          tc "names" test_name_predicates;
          tc "combinators" test_combinators;
          tc "undefined matches nothing" test_undefined_matches_nothing;
          tc "children and values" test_has_child_and_value;
          tc "is_incomplete" test_is_incomplete_predicate;
        ] );
      ( "navigation",
        [
          tc "select_rels" test_select_rels;
        ] );
      ( "integration",
        [
          tc "inherited relationships" test_queries_see_inherited_relationships;
          tc "version views" test_queries_respect_versions;
        ] );
      ( "semantics",
        [
          tc "no phantom rows" test_no_phantom_rows_for_undefined;
          tc "pattern expansion" test_pattern_expansion;
          tc "version views" test_relationships_respect_versions;
        ] );
      ( "allocation",
        [
          tc "search with no hit" test_search_miss_allocation;
          tc "is_a select" test_is_a_allocation;
          tc "keyword search" test_keyword_allocation;
        ] );
    ]
