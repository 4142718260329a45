(* Shared fixtures for the SEED test suites: the paper's Fig. 2 and
   Fig. 3 schemas and common Alcotest plumbing. *)

open Seed_util
open Seed_schema

let ok = Seed_error.ok_exn

let err_of = function
  | Ok _ -> Alcotest.fail "expected an error, got Ok"
  | Error e -> e

let check_ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: unexpected error: %s" what (Seed_error.to_string e)

let check_err what pred = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: unexpected error kind: %s" what (Seed_error.to_string e)

let is_cardinality = function Seed_error.Cardinality_violation _ -> true | _ -> false
let is_membership = function Seed_error.Membership_violation _ -> true | _ -> false
let is_duplicate = function Seed_error.Duplicate_name _ -> true | _ -> false
let is_cycle = function Seed_error.Cycle_detected _ -> true | _ -> false
let is_type = function Seed_error.Type_mismatch _ -> true | _ -> false
let is_pattern_violation = function Seed_error.Pattern_violation _ -> true | _ -> false
let is_vetoed = function Seed_error.Vetoed _ -> true | _ -> false

(* The Fig. 2 schema: the primitive specification system without
   generalizations. *)
let fig2_schema () =
  let c = Cardinality.between in
  Schema.of_defs_exn
    [
      Class_def.v [ "Data" ];
      Class_def.v ~card:(c 0 16) [ "Data"; "Text" ];
      Class_def.v ~card:(c 1 1) ~content:Value_type.String
        [ "Data"; "Text"; "Body" ];
      Class_def.v ~card:(c 0 1) ~content:Value_type.String
        [ "Data"; "Text"; "Selector" ];
      Class_def.v ~card:Cardinality.any ~content:Value_type.String
        [ "Data"; "Text"; "Body"; "Keywords" ];
      Class_def.v [ "Action" ];
      Class_def.v ~card:(c 0 1) ~content:Value_type.String
        [ "Action"; "Description" ];
    ]
    [
      Assoc_def.v "Read"
        [
          Assoc_def.role ~card:(Cardinality.at_least 1) "from" "Data";
          Assoc_def.role ~card:Cardinality.any "by" "Action";
        ];
      Assoc_def.v "Write"
        [
          Assoc_def.role ~card:(Cardinality.at_least 1) "from" "Data";
          Assoc_def.role ~card:Cardinality.any "by" "Action";
        ];
      Assoc_def.v ~acyclic:true "Contained"
        [
          Assoc_def.role ~card:(c 0 1) "contained" "Action";
          Assoc_def.role ~card:Cardinality.any "container" "Action";
        ];
    ]

(* The Fig. 3 schema with generalizations — shared with the SPADES
   tool. *)
let fig3_schema () = Spades_tool.Spec_model.schema

let fresh_db () = Seed_core.Database.create (fig3_schema ())

let with_objects db specs =
  List.map
    (fun (name, cls) ->
      ok (Seed_core.Database.create_object db ~cls ~name ()))
    specs

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let tc name f = Alcotest.test_case name `Quick f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* [Query.explain] renders the plan [select] runs, without running it:
   it never raises, its candidate estimate bounds the [hits] the
   predicate has — and when it says exact, the live normal candidates
   are exactly that many — every text lookup it reports intersects
   needles of the predicate ([needles]) long enough for a trigram, and
   it counts no text query. *)
let explain_sound ~needles ~hits v p =
  let module Q = Seed_core.Query in
  let module View = Seed_core.View in
  let counters () = Seed_core.Db_state.text_counters (View.db v) in
  let live_normal id n =
    match Seed_core.Db_state.find_item (View.db v) id with
    | Some it when View.live_normal v it -> n + 1
    | Some _ | None -> n
  in
  let before = counters () in
  let plan = Q.explain v p in
  counters () = before
  &&
  match plan with
  | Q.Scan _ -> true
  | Q.Indexed { est_candidates; candidates; exact; texts; _ } ->
    est_candidates >= hits
    && ((not exact) || Ident.Set.fold live_normal candidates 0 = hits)
    && List.for_all
         (fun tp ->
           tp.Q.tp_needles <> []
           && List.for_all
                (fun n -> String.length n >= 3 && List.mem n needles)
                tp.Q.tp_needles)
         texts
