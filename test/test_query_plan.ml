(* Planner/scan equivalence for the query layer.

   The planner in [Query] answers index-recognisable predicates from the
   class extents and the name index. Its one obligation is to return
   exactly what a naive scan over the item table returns, in name
   order — for every predicate shape, after any operation sequence, on
   current and on version views. The naive reference below deliberately
   bypasses both the extents and [View.all_objects] (which is itself
   extent-backed on current views), so any drift in extent maintenance
   shows up as a disagreement here. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query

(* ------------------------------------------------------------------ *)
(* Symbolic operations                                                  *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * string
  | CreatePattern of int
  | CreateSub of int * string
  | DeleteSub of int
  | CreateRel of int * int * string
  | Reclassify of int * string
  | Delete of int
  | Inherit of int * int
  | Uninherit of int * int
  | Snapshot
  | Branch of int

let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]
let assocs = [ "Access"; "Read"; "Write"; "Contained" ]

(* sub-object roles of objects ([Description], [Keywords], [Text]) and
   of a [Text] sub-object ([Body]), so children have children too *)
let roles = [ "Description"; "Keywords"; "Text"; "Body" ]

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map2 (fun i c -> Create (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> CreatePattern i) (int_bound 40));
      (3, map2 (fun i r -> CreateSub (i, r)) (int_bound 40) (oneofl roles));
      (1, map (fun i -> DeleteSub i) (int_bound 40));
      ( 3,
        map3
          (fun a b s -> CreateRel (a, b, s))
          (int_bound 40) (int_bound 40) (oneofl assocs) );
      (3, map2 (fun i c -> Reclassify (i, c)) (int_bound 40) (oneofl classes));
      (2, map (fun i -> Delete i) (int_bound 40));
      (1, map2 (fun p i -> Inherit (p, i)) (int_bound 40) (int_bound 40));
      (1, map2 (fun p i -> Uninherit (p, i)) (int_bound 40) (int_bound 40));
      (1, return Snapshot);
      (1, map (fun i -> Branch i) (int_bound 8));
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
  | CreateSub (i, role) -> (
    match pick (env.subs @ env.objects @ env.patterns) i with
    | None -> ()
    | Some parent -> (
      let value = if role = "Text" then None else Some (Value.String role) in
      match DB.create_sub_object env.db ~parent ~role ?value () with
      | Ok id -> env.subs <- id :: env.subs
      | Error _ -> ()))
  | DeleteSub i -> (
    match pick env.subs i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
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

let run_model ops =
  let env =
    { db = DB.create (fig3_schema ()); objects = []; subs = []; patterns = []; versions = [] }
  in
  List.iter (apply env) ops;
  env

(* ------------------------------------------------------------------ *)
(* Naive reference evaluation                                           *)
(* ------------------------------------------------------------------ *)

let sorted_ids items =
  List.map (fun (it : Item.t) -> it.Item.id) items |> List.sort Ident.compare

let naive_select v p =
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      if
        it.Item.body = Item.Independent
        && View.live_normal v it
        && Q.test p v it
      then it.Item.id :: acc
      else acc)
  |> List.sort Ident.compare

(* The naive hits in the order [select] promises: by full name (unnamed
   ones first), the id breaking ties. *)
let naive_in_name_order v p =
  naive_select v p
  |> List.filter_map (Db_state.find_item (View.db v))
  |> List.map (fun (it : Item.t) -> (View.full_name v it, it.Item.id))
  |> List.sort (fun (m, a) (n, b) ->
         match compare m n with
         | 0 -> Ident.compare a b
         | c -> c)
  |> List.map snd

let naive_select_rels v ~assoc =
  let schema = View.schema v in
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      match (it.Item.body, View.state v it) with
      | Item.Relationship, Item.Rel rs
        when View.live_normal v it
             && Schema.assoc_is_a schema ~sub:rs.assoc ~super:assoc ->
        it.Item.id :: acc
      | _ -> acc)
  |> List.sort Ident.compare

(* Every predicate shape the planner handles (bounded, intersected,
   unioned) plus shapes that must fall back (negation, opaque, mixed). *)
let predicate_pool =
  List.concat_map (fun c -> [ Q.in_class c; Q.is_a c ]) classes
  @ [
      Q.name_is "obj3";
      Q.name_is "obj17";
      Q.name_is "no-such-object";
      Q.name_is "pat5";
      Q.(in_class "Data" &&& is_a "Thing");
      Q.(is_a "Data" &&& name_is "obj3");
      Q.(in_class "InputData" ||| in_class "OutputData");
      Q.(is_a "Data" ||| is_a "Action");
      Q.(not_ (is_a "Data"));
      Q.(is_a "Thing" &&& not_ (in_class "Data"));
      Q.of_fun (fun v it ->
          match View.full_name v it with
          | Some n -> String.length n mod 2 = 0
          | None -> false);
      Q.(is_a "Data"
        &&& of_fun (fun v it ->
                match View.state v it with
                | Item.Obj o -> not o.pattern
                | Item.Rel _ | Item.Absent -> false));
    ]

let views env =
  let st = DB.raw env.db in
  View.current st :: List.map (View.at st) env.versions

let select_agrees env =
  List.for_all
    (fun v ->
      List.for_all
        (fun p ->
          let selected = Q.select v p in
          let planned = sorted_ids selected in
          planned = naive_select v p
          && Q.count v p = List.length planned
          && explain_sound ~needles:[] ~hits:(List.length planned) v p
          && List.map (fun (it : Item.t) -> it.Item.id) selected
             = naive_in_name_order v p
          && Array.to_list (Q.select_names v p) = List.filter_map (View.full_name v) selected)
        predicate_pool)
    (views env)

let select_rels_agrees env =
  List.for_all
    (fun v ->
      List.for_all
        (fun assoc ->
          sorted_ids (Q.select_rels v ~assoc) = naive_select_rels v ~assoc)
        ("NoSuchAssoc" :: assocs))
    (views env)

let extents_agree env =
  (* View.all_objects / all_patterns / all_rels and each item's children,
     relationships and inheritors on the current view are extent-backed;
     a raw table scan must see the same sets, in id order *)
  let st = DB.raw env.db in
  let v = View.current st in
  let scan keep =
    Db_state.fold_items st ~init:[] ~f:(fun acc it ->
        if keep it then it.Item.id :: acc else acc)
    |> List.sort Ident.compare
  in
  sorted_ids (View.all_objects v)
  = scan (fun it -> it.Item.body = Item.Independent && View.live_normal v it)
  && sorted_ids (View.all_patterns v)
     = scan (fun it -> it.Item.body = Item.Independent && View.live_pattern v it)
  && sorted_ids (View.all_rels v)
     = scan (fun it -> it.Item.body = Item.Relationship && View.live_normal v it)
  && adjacency_agrees st v (fun it -> it.Item.current)

let prop_select =
  qcheck_case ~count:100 "planned select/count = naive scan" ops_gen (fun ops ->
      select_agrees (run_model ops))

let prop_select_rels =
  qcheck_case ~count:100 "planned select_rels = naive scan" ops_gen (fun ops ->
      select_rels_agrees (run_model ops))

let prop_extents =
  qcheck_case ~count:100 "extents = table scan after any op sequence" ops_gen
    (fun ops -> extents_agree (run_model ops))

let prop_all_prefixes =
  qcheck_case ~count:30 "planner agrees at every prefix"
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
          extents_agree env && select_agrees env && select_rels_agrees env)
        ops)

let () =
  Alcotest.run "query_plan"
    [
      ( "planner equivalence",
        [ prop_select; prop_select_rels; prop_extents; prop_all_prefixes ] );
    ]
