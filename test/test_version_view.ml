(* Cached version views must be invisible.

   A version view is its materialized extent ([Db_state.version_extent]),
   which answers [Query], [View.all_*], [View.find_object], and [History]
   reads for a saved version. Its one obligation is to agree, always,
   with the definition of a version view: resolve every item to the
   stamp of the nearest ancestor of the version. The references below
   bypass {e all} acceleration — the extent cache, the memoized ancestor
   chains, and the planner — by walking explicit parent links with
   [Item.stamp_at] and evaluating a private predicate AST, so drift in
   any layer surfaces as a disagreement here. The suite drives random
   operation sequences (including version deletion), then checks every
   surviving version, after a persistence roundtrip too, and reads more
   versions than the cache holds (eviction paths). *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module Versioning = Seed_core.Versioning
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query
module History = Seed_core.History
module Persist = Seed_core.Persist

(* ------------------------------------------------------------------ *)
(* Symbolic operations                                                  *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * string
  | CreatePattern of int
  | CreateSub of int * int
  | DeleteSub of int
  | SetValue of int * int
  | Rename of int * int
  | CreateRel of int * int * string
  | Reclassify of int * string
  | Delete of int
  | Inherit of int * int
  | Uninherit of int * int
  | Snapshot
  | Branch of int
  | DeleteVersion of int

let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]
let assocs = [ "Access"; "Read"; "Write"; "Contained" ]

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map2 (fun i c -> Create (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> CreatePattern i) (int_bound 40));
      (2, map2 (fun i v -> CreateSub (i, v)) (int_bound 40) (int_bound 99));
      (1, map (fun i -> DeleteSub i) (int_bound 40));
      (2, map2 (fun i v -> SetValue (i, v)) (int_bound 40) (int_bound 99));
      (2, map2 (fun i n -> Rename (i, n)) (int_bound 40) (int_bound 40));
      ( 3,
        map3
          (fun a b s -> CreateRel (a, b, s))
          (int_bound 40) (int_bound 40) (oneofl assocs) );
      (3, map2 (fun i c -> Reclassify (i, c)) (int_bound 40) (oneofl classes));
      (2, map (fun i -> Delete i) (int_bound 40));
      (1, map2 (fun p i -> Inherit (p, i)) (int_bound 40) (int_bound 40));
      (1, map2 (fun p i -> Uninherit (p, i)) (int_bound 40) (int_bound 40));
      (2, return Snapshot);
      (1, map (fun i -> Branch i) (int_bound 8));
      (1, map (fun i -> DeleteVersion i) (int_bound 8));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 0 60) op_gen)

type env = {
  db : DB.t;
  mutable objects : Ident.t list;
  mutable subs : Ident.t list;
  mutable patterns : Ident.t list;
  mutable versions : Version_id.t list;
}

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let apply env op =
  let ignore_result (r : (_, Seed_error.t) result) = ignore r in
  match op with
  | Create (i, cls) -> (
    match DB.create_object env.db ~cls ~name:(Printf.sprintf "obj%d" i) () with
    | Ok id -> env.objects <- id :: env.objects
    | Error _ -> ())
  | CreatePattern i -> (
    match
      DB.create_object env.db ~cls:"Data" ~name:(Printf.sprintf "pat%d" i)
        ~pattern:true ()
    with
    | Ok id -> env.patterns <- id :: env.patterns
    | Error _ -> ())
  | CreateSub (i, v) -> (
    (* a [Description] of an object, or a [Text] holding a [Body], so
       sub-objects have children too *)
    let role, value =
      match v mod 3 with
      | 0 -> ("Text", None)
      | 1 -> ("Body", Some (Value.String (Printf.sprintf "d%d" v)))
      | _ -> ("Description", Some (Value.String (Printf.sprintf "d%d" v)))
    in
    match pick (env.subs @ env.objects) i with
    | None -> ()
    | Some parent -> (
      match DB.create_sub_object env.db ~parent ~role ?value () with
      | Ok id -> env.subs <- id :: env.subs
      | Error _ -> ()))
  | DeleteSub i -> (
    match pick env.subs i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
  | SetValue (i, v) -> (
    match pick env.subs i with
    | None -> ()
    | Some id ->
      ignore_result
        (DB.set_value env.db id (Some (Value.String (Printf.sprintf "d%d" v)))))
  | Rename (i, n) -> (
    match pick env.objects i with
    | None -> ()
    | Some id ->
      ignore_result (DB.rename_object env.db id (Printf.sprintf "obj%dR" n)))
  | CreateRel (a, b, assoc) -> (
    match (pick env.objects a, pick env.objects b) with
    | Some x, Some y ->
      ignore_result (DB.create_relationship env.db ~assoc ~endpoints:[ x; y ] ())
    | _ -> ())
  | Reclassify (i, cls) -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.reclassify env.db id ~to_:cls))
  | Delete i -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
  | Inherit (p, i) -> (
    match (pick env.patterns p, pick env.objects i) with
    | Some pattern, Some inheritor ->
      ignore_result (DB.inherit_pattern env.db ~pattern ~inheritor)
    | _ -> ())
  | Uninherit (p, i) -> (
    match (pick env.patterns p, pick env.objects i) with
    | Some pattern, Some inheritor ->
      ignore_result (DB.uninherit_pattern env.db ~pattern ~inheritor)
    | _ -> ())
  | Snapshot -> (
    match DB.create_version env.db with
    | Ok v -> env.versions <- v :: env.versions
    | Error _ -> ())
  | Branch i -> (
    match pick env.versions i with
    | None -> ()
    | Some v ->
      ignore_result (DB.begin_alternative env.db ~from_:v ~force:true ()))
  | DeleteVersion i -> (
    match pick env.versions i with
    | None -> ()
    | Some v -> (
      match DB.delete_version env.db v with
      | Ok () ->
        env.versions <-
          List.filter (fun w -> not (Version_id.equal w v)) env.versions
      | Error _ -> ()))

let run_model ops =
  let env =
    {
      db = DB.create (fig3_schema ());
      objects = [];
      subs = [];
      patterns = [];
      versions = [];
    }
  in
  List.iter (apply env) ops;
  env

(* ------------------------------------------------------------------ *)
(* Reference implementations (no memo, no cache, no planner)            *)
(* ------------------------------------------------------------------ *)

(* The defining walk: the stamp at the nearest ancestor, following the
   version tree's explicit parent links only. *)
let ref_state st (it : Item.t) vid =
  let rec go v =
    match Item.stamp_at it v with
    | Item.Absent -> (
      match Versioning.find (Db_state.versions st) v with
      | None -> Item.Absent
      | Some n -> (
        match n.Versioning.parent with None -> Item.Absent | Some p -> go p))
    | s -> s
  in
  go vid

let sorted_ids items =
  List.map (fun (it : Item.t) -> it.Item.id) items |> List.sort Ident.compare

let ref_fold st vid keep =
  Db_state.fold_items st ~init:[] ~f:(fun acc it ->
      match ref_state st it vid with
      | Item.Absent -> acc
      | s -> if keep it s then it.Item.id :: acc else acc)
  |> List.sort Ident.compare

let ref_all_objects st vid =
  ref_fold st vid (fun it s ->
      it.Item.body = Item.Independent
      && (not (Item.state_deleted s))
      && not (Item.state_pattern s))

let ref_all_patterns st vid =
  ref_fold st vid (fun it s ->
      it.Item.body = Item.Independent
      && (not (Item.state_deleted s))
      && Item.state_pattern s)

let ref_all_rels st vid =
  ref_fold st vid (fun it s ->
      it.Item.body = Item.Relationship
      && (not (Item.state_deleted s))
      && not (Item.state_pattern s))

let ref_select_rels st vid assoc =
  let schema = View.schema (View.at st vid) in
  ref_fold st vid (fun it s ->
      match (it.Item.body, s) with
      | Item.Relationship, Item.Rel rs ->
        (not rs.rel_deleted)
        && (not rs.rel_pattern)
        && Schema.assoc_is_a schema ~sub:rs.assoc ~super:assoc
      | _ -> false)

(* find_object: live independents, patterns included (callers filter) *)
let ref_find st vid name =
  Db_state.fold_items st ~init:None ~f:(fun acc it ->
      match acc with
      | Some _ -> acc
      | None -> (
        if it.Item.body <> Item.Independent then None
        else
          match ref_state st it vid with
          | Item.Obj { name = Some n; deleted = false; _ } when String.equal n name ->
            Some it.Item.id
          | Item.Obj _ | Item.Rel _ | Item.Absent -> None))

let ref_changed st v1 v2 =
  Db_state.fold_items st ~init:[] ~f:(fun acc it ->
      if ref_state st it v1 <> ref_state st it v2 then it.Item.id :: acc
      else acc)
  |> List.sort Ident.compare

(* A private predicate AST, evaluated directly on reference-resolved
   object states — independent of [Query.test] and of [View]. *)
type tpred =
  | TIn of string
  | TIsa of string
  | TName of string
  | TAnd of tpred * tpred
  | TOr of tpred * tpred
  | TNot of tpred

let rec to_q = function
  | TIn c -> Q.in_class c
  | TIsa c -> Q.is_a c
  | TName n -> Q.name_is n
  | TAnd (a, b) -> Q.( &&& ) (to_q a) (to_q b)
  | TOr (a, b) -> Q.( ||| ) (to_q a) (to_q b)
  | TNot a -> Q.not_ (to_q a)

let rec ref_eval schema ~cls ~name = function
  | TIn c -> String.equal cls c
  | TIsa c -> Schema.class_is_a schema ~sub:cls ~super:c
  | TName n -> (
    (* an independent's full name is its own name *)
    match name with Some m -> String.equal m n | None -> false)
  | TAnd (a, b) -> ref_eval schema ~cls ~name a && ref_eval schema ~cls ~name b
  | TOr (a, b) -> ref_eval schema ~cls ~name a || ref_eval schema ~cls ~name b
  | TNot a -> not (ref_eval schema ~cls ~name a)

let ref_select st vid p =
  let schema = View.schema (View.at st vid) in
  ref_fold st vid (fun it s ->
      match (it.Item.body, s) with
      | Item.Independent, Item.Obj o ->
        (not o.deleted) && (not o.pattern) && ref_eval schema ~cls:o.cls ~name:o.name p
      | _ -> false)

(* Planner-recognised shapes, fallback shapes, and mixtures. *)
let predicate_pool =
  List.concat_map (fun c -> [ TIn c; TIsa c ]) classes
  @ [
      TName "obj3";
      TName "obj17R";
      TName "pat5";
      TName "no-such-object";
      TAnd (TIn "Data", TIsa "Thing");
      TAnd (TIsa "Data", TName "obj3");
      TOr (TIn "InputData", TIn "OutputData");
      TOr (TIsa "Data", TIsa "Action");
      TNot (TIsa "Data");
      TAnd (TIsa "Thing", TNot (TIn "Data"));
    ]

let names_pool = [ "obj3"; "obj17"; "obj17R"; "pat5"; "no-such-object" ]

(* ------------------------------------------------------------------ *)
(* The equivalence check                                                *)
(* ------------------------------------------------------------------ *)

let version_agrees db vid =
  let st = DB.raw db in
  let v = View.at st vid in
  List.for_all
    (fun p ->
      let q = to_q p in
      let expected = ref_select st vid p in
      sorted_ids (Q.select v q) = expected
      && Q.count v q = List.length expected)
    predicate_pool
  && List.for_all
       (fun assoc ->
         sorted_ids (Q.select_rels v ~assoc) = ref_select_rels st vid assoc)
       ("NoSuchAssoc" :: assocs)
  && List.for_all
       (fun name ->
         Option.map (fun (it : Item.t) -> it.Item.id) (View.find_object v name)
         = ref_find st vid name)
       names_pool
  && sorted_ids (View.all_objects v) = ref_all_objects st vid
  && sorted_ids (View.all_patterns v) = ref_all_patterns st vid
  && sorted_ids (View.all_rels v) = ref_all_rels st vid
  && adjacency_agrees st v (fun it -> ref_state st it vid)

let history_agrees db versions =
  let st = DB.raw db in
  match versions with
  | v1 :: v2 :: _ -> (
    match History.changed_between db v1 v2 with
    | Ok ids -> ids = ref_changed st v1 v2
    | Error _ -> false)
  | _ -> true

(* [Database.stats] counts by extent cardinality: its counts must be the
   enumerations' lengths, on the current state and on every version *)
let stats_agree db versions =
  let agree () =
    let st = DB.stats db and v = DB.view db in
    st.DB.st_objects = List.length (View.all_objects v)
    && st.DB.st_patterns = List.length (View.all_patterns v)
    && st.DB.st_relationships = List.length (View.all_rels v)
  in
  let at vid = Result.is_ok (DB.select_version db vid) && agree () in
  List.for_all (fun vid -> at (Some vid)) versions && at None

(* the current view's adjacency, kept by every update, against the
   current states *)
let current_agrees db =
  let st = DB.raw db in
  adjacency_agrees st (View.current st) (fun it -> it.Item.current)

let all_agree db versions =
  List.for_all (version_agrees db) versions
  && current_agrees db
  && history_agrees db versions
  && stats_agree db versions

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_equiv =
  qcheck_case ~count:60 "cached version reads = reference walk" ops_gen
    (fun ops ->
      let env = run_model ops in
      all_agree env.db env.versions)

let prop_equiv_after_load =
  qcheck_case ~count:30 "version reads agree after a persistence roundtrip"
    ops_gen
    (fun ops ->
      let env = run_model ops in
      match Persist.decode_db (Persist.encode_db env.db) with
      | Error _ -> false
      | Ok db2 -> all_agree db2 env.versions)

let prop_all_prefixes =
  qcheck_case ~count:15 "version reads agree at every prefix"
    QCheck2.Gen.(list_size (int_range 0 25) op_gen)
    (fun ops ->
      let env =
        {
          db = DB.create (fig3_schema ());
          objects = [];
          subs = [];
          patterns = [];
          versions = [];
        }
      in
      List.for_all
        (fun op ->
          apply env op;
          all_agree env.db env.versions)
        ops)

(* ------------------------------------------------------------------ *)
(* Deterministic cache behaviour                                        *)
(* ------------------------------------------------------------------ *)

(* More versions than the cache's 8 slots, read twice over: every view
   still agrees with the reference walk, and the reads evict. *)
let test_reads_past_capacity_agree () =
  let cls i = List.nth classes (i mod List.length classes) in
  let ops =
    List.concat
      (List.init 12 (fun i ->
           [
             Create (i, cls i);
             CreateSub (i, i);
             SetValue (i + 3, i);
             CreateRel (i, i + 1, List.nth assocs (i mod List.length assocs));
             Reclassify (i + 2, cls (i + 1));
             (if i mod 4 = 3 then Delete (i + 5) else Rename (i, i));
             (if i mod 3 = 0 then CreatePattern i else Inherit (i, i + 1));
             (if i = 7 then Branch 2 else Snapshot);
             Snapshot;
           ]))
  in
  let env = run_model ops in
  Alcotest.(check bool) "at least 10 versions" true (List.length env.versions >= 10);
  List.iter
    (fun vid ->
      Alcotest.(check bool)
        ("version " ^ Version_id.to_string vid ^ " agrees")
        true (version_agrees env.db vid))
    (env.versions @ env.versions);
  Alcotest.(check bool) "history agrees" true (history_agrees env.db env.versions);
  Alcotest.(check bool)
    "reads evicted" true
    ((Db_state.version_cache_stats (DB.raw env.db)).Db_state.vc_evictions > 0)

let test_delete_version_invalidates () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"a" ()) in
  let v1 = ok (DB.create_version db) in
  let _b = ok (DB.create_object db ~cls:"Data" ~name:"b" ()) in
  let v2 = ok (DB.create_version db) in
  let st = DB.raw db in
  Alcotest.(check int)
    "v2 sees a and b" 2
    (List.length (Q.select (View.at st v2) (Q.in_class "Data")));
  ok (DB.begin_alternative db ~from_:v1 ~force:true ());
  check_ok "delete v2" (DB.delete_version db v2);
  let s0 = Db_state.version_cache_stats st in
  let gone = View.at st v2 in
  Alcotest.(check bool)
    "a deleted label is neither served from the cache nor rebuilt" true
    (Db_state.version_cache_stats st = s0);
  Alcotest.(check int)
    "deleted version reads as empty" 0
    (List.length (Q.select gone (Q.in_class "Data")));
  let ids = sorted_ids (Q.select (View.at st v1) (Q.in_class "Data")) in
  Alcotest.(check bool) "v1 still sees exactly a" true (ids = [ a ])

let test_cache_stats () =
  let db = fresh_db () in
  let _a = ok (DB.create_object db ~cls:"Data" ~name:"a" ()) in
  let v1 = ok (DB.create_version db) in
  let st = DB.raw db in
  let s0 = Db_state.version_cache_stats st in
  ignore (Q.select (View.at st v1) (Q.in_class "Data"));
  ignore (Q.select (View.at st v1) (Q.is_a "Thing"));
  ignore (Q.count (View.at st v1) (Q.is_a "Thing"));
  let s1 = Db_state.version_cache_stats st in
  Alcotest.(check int)
    "one build for three queries" 1
    (s1.Db_state.vc_misses - s0.Db_state.vc_misses);
  Alcotest.(check bool)
    "subsequent queries hit" true
    (s1.Db_state.vc_hits >= s0.Db_state.vc_hits + 2)

(* A view of a label not created yet reads empty and caches nothing;
   once the label exists, a new view reads its state. *)
let test_future_label () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"a" ()) in
  let st = DB.raw db in
  let label = Version_id.trunk 1 in
  let s0 = Db_state.version_cache_stats st in
  let early = View.at st label in
  Alcotest.(check bool)
    "not counted" true
    (Db_state.version_cache_stats st = s0);
  Alcotest.(check bool)
    "reads empty" true
    (View.all_objects early = []
    && View.find_object early "a" = None
    && Q.count early (Q.is_a "Thing") = 0);
  let v1 = ok (DB.create_version db) in
  Alcotest.(check bool) "the label is created" true (Version_id.equal v1 label);
  let late = View.at st label in
  Alcotest.(check bool)
    "a new view reads its state" true
    (sorted_ids (View.all_objects late) = [ a ]
    && Option.map (fun (it : Item.t) -> it.Item.id) (View.find_object late "a")
       = Some a
    && sorted_ids (Q.select late (Q.is_a "Thing")) = [ a ]);
  Alcotest.(check bool) "agrees with the reference walk" true (version_agrees db label)

(* A version keeps the adjacency its states had: a relationship deleted
   and a pattern un-inherited after it are still listed there, and gone
   from the current view. Deleted relationships leave no trace in the
   current state's sets, however many come and go. *)
let test_adjacency_at_version () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Action" ~name:"a" ()) in
  let b = ok (DB.create_object db ~cls:"Action" ~name:"b" ()) in
  let p = ok (DB.create_object db ~cls:"Data" ~name:"p" ~pattern:true ()) in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"d" ()) in
  let r = ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ a; b ] ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:d);
  let v1 = ok (DB.create_version db) in
  check_ok "delete" (DB.delete db r);
  check_ok "uninherit" (DB.uninherit_pattern db ~pattern:p ~inheritor:d);
  let st = DB.raw db in
  let at = View.at st v1 and now = View.current st in
  let ids = Alcotest.(list int) in
  let ints l = List.map (fun (it : Item.t) -> Ident.to_int it.Item.id) l in
  Alcotest.(check ids) "v1 rels of a" [ Ident.to_int r ] (ints (View.rels at a));
  Alcotest.(check ids) "v1 rels of b" [ Ident.to_int r ] (ints (View.rels at b));
  Alcotest.(check ids) "v1 inheritors" [ Ident.to_int d ] (ints (View.inheritors_of at p));
  Alcotest.(check ids) "current rels of a" [] (ints (View.rels now a));
  Alcotest.(check ids) "current rels of b" [] (ints (View.rels now b));
  Alcotest.(check ids) "current inheritors" [] (ints (View.inheritors_of now p));
  let leaf = ok (DB.create_object db ~cls:"Action" ~name:"leaf" ()) in
  for _ = 1 to 100 do
    let e = ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ leaf; b ] ()) in
    check_ok "delete edge" (DB.delete db e)
  done;
  let live = ok (DB.create_relationship db ~assoc:"Contained" ~endpoints:[ leaf; b ] ()) in
  let rels_of id = Db_state.rels_of (Db_state.extents (DB.raw db)) id in
  Alcotest.(check ids) "only the live edge" [ Ident.to_int live ]
    (List.map Ident.to_int (Ident.Set.elements (rels_of leaf)));
  Alcotest.(check ids) "only the live edge at the other end" [ Ident.to_int live ]
    (List.map Ident.to_int (Ident.Set.elements (rels_of b)));
  Alcotest.(check bool) "agrees with the reference walk" true (version_agrees db v1)

let () =
  Alcotest.run "version_view"
    [
      ( "equivalence",
        [
          prop_equiv;
          prop_equiv_after_load;
          prop_all_prefixes;
        ] );
      ( "cache behaviour",
        [
          tc "reads past capacity agree" test_reads_past_capacity_agree;
          tc "delete_version invalidates" test_delete_version_invalidates;
          tc "stats count builds and hits" test_cache_stats;
          tc "future label reads empty" test_future_label;
        ] );
      ("adjacency", [ tc "kept by versions, dropped by deletion" test_adjacency_at_version ]);
    ]
