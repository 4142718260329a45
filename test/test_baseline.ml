(* The baselines: the conventional store must refuse what SEED accepts,
   and full-copy versioning must cost what delta versioning avoids. *)

open Seed_schema
open Helpers
module Rigid = Seed_baseline.Rigid_store
module Raw = Seed_baseline.Raw_store

let rigid () = Rigid.create (fig3_schema ())

let alarms_cluster ?(name = "Alarms") ?(action = "Handler") () =
  ( [
      {
        Rigid.no_name = name;
        no_cls = "InputData";
        no_value = None;
        no_subs = [ ("Description", Some (Value.String "alarm store")) ];
      };
      { Rigid.no_name = action; no_cls = "Action"; no_value = None; no_subs = [] };
    ],
    [ { Rigid.nr_assoc = "Read"; nr_endpoints = [ name; action ] } ] )

let test_rigid_accepts_complete_cluster () =
  let t = rigid () in
  let objs, rels = alarms_cluster () in
  check_ok "cluster" (Rigid.insert_cluster t ~objs ~rels);
  Alcotest.(check bool) "alarms there" true (Rigid.mem t "Alarms");
  Alcotest.(check (option string)) "class" (Some "InputData") (Rigid.class_of t "Alarms");
  Alcotest.(check int) "objects" 2 (Rigid.object_count t);
  Alcotest.(check int) "rels" 1 (Rigid.rel_count t)

let test_rigid_refuses_incomplete () =
  (* the paper's example (2): a bare Action without its Access violates
     the minimum — the conventional store refuses it outright *)
  let t = rigid () in
  check_err "action alone" is_cardinality
    (Rigid.insert_cluster t
       ~objs:[ { Rigid.no_name = "H"; no_cls = "Action"; no_value = None; no_subs = [] } ]
       ~rels:[])

let test_rigid_refuses_vague () =
  (* no covering class membership: 'there is a thing' cannot be stored *)
  let t = rigid () in
  check_err "thing refused"
    (function Seed_util.Seed_error.Schema_violation _ -> true | _ -> false)
    (Rigid.insert_cluster t
       ~objs:[ { Rigid.no_name = "X"; no_cls = "Thing"; no_value = None; no_subs = [] } ]
       ~rels:[]);
  (* nor a vague Access relationship *)
  let objs, _ = alarms_cluster () in
  check_err "access refused"
    (function Seed_util.Seed_error.Schema_violation _ -> true | _ -> false)
    (Rigid.insert_cluster t ~objs
       ~rels:[ { Rigid.nr_assoc = "Access"; nr_endpoints = [ "Alarms"; "Handler" ] } ])

let test_rigid_all_or_nothing () =
  let t = rigid () in
  let objs, _ = alarms_cluster () in
  (* bad relationship: nothing of the cluster lands *)
  check_err "bad rel" is_membership
    (Rigid.insert_cluster t ~objs
       ~rels:[ { Rigid.nr_assoc = "Read"; nr_endpoints = [ "Handler"; "Alarms" ] } ]);
  Alcotest.(check int) "nothing inserted" 0 (Rigid.object_count t)

let test_rigid_membership_and_types () =
  let t = rigid () in
  check_err "bad value type" is_type
    (Rigid.insert_cluster t
       ~objs:
         [
           {
             Rigid.no_name = "X";
             no_cls = "InputData";
             no_value = None;
             no_subs = [ ("Description", Some (Value.Int 3)) ];
           };
           { Rigid.no_name = "H"; no_cls = "Action"; no_value = None; no_subs = [] };
         ]
       ~rels:[ { Rigid.nr_assoc = "Read"; nr_endpoints = [ "X"; "H" ] } ])

let test_rigid_duplicate () =
  let t = rigid () in
  let objs, rels = alarms_cluster () in
  check_ok "first" (Rigid.insert_cluster t ~objs ~rels);
  let objs2, rels2 = alarms_cluster ~action:"Handler2" () in
  check_err "duplicate name" is_duplicate (Rigid.insert_cluster t ~objs:objs2 ~rels:rels2)

let test_rigid_acyclic () =
  let t = rigid () in
  (* two mutually contained actions; give each a Read to satisfy minima *)
  let mk_action n = { Rigid.no_name = n; no_cls = "Action"; no_value = None; no_subs = [] } in
  let data n = { Rigid.no_name = n; no_cls = "InputData"; no_value = None; no_subs = [] } in
  check_err "cycle" is_cycle
    (Rigid.insert_cluster t
       ~objs:[ mk_action "A"; mk_action "B"; data "D1"; data "D2" ]
       ~rels:
         [
           { Rigid.nr_assoc = "Read"; nr_endpoints = [ "D1"; "A" ] };
           { Rigid.nr_assoc = "Read"; nr_endpoints = [ "D2"; "B" ] };
           { Rigid.nr_assoc = "Contained"; nr_endpoints = [ "A"; "B" ] };
           { Rigid.nr_assoc = "Contained"; nr_endpoints = [ "B"; "A" ] };
         ])

let test_rigid_delete_referential_integrity () =
  let t = rigid () in
  let objs, rels = alarms_cluster () in
  check_ok "insert" (Rigid.insert_cluster t ~objs ~rels);
  (* deleting Alarms would leave Handler below its Access minimum *)
  check_err "refused" is_cardinality (Rigid.delete_object t "Alarms");
  (* deleting Handler first is also refused: Alarms would... actually
     Alarms (InputData) has no minimum on Read.from = 0..*, but Handler's
     deletion leaves Alarms fine; Access.by 1..* binds actions only *)
  check_err "handler load-bearing for itself" is_cardinality
    (Rigid.delete_object t "Alarms")

let test_rigid_set_value () =
  let t = rigid () in
  let objs, rels = alarms_cluster () in
  check_ok "insert" (Rigid.insert_cluster t ~objs ~rels);
  check_ok "set sub value"
    (Rigid.set_value t ~name:"Alarms" ~role:("Description", 0) (Value.String "new"));
  Alcotest.(check bool) "updated" true
    (Rigid.sub_values t "Alarms" ~role:"Description" = [ Value.String "new" ]);
  check_err "bad type" is_type
    (Rigid.set_value t ~name:"Alarms" ~role:("Description", 0) (Value.Int 1))

let test_full_copy_versioning () =
  let t = rigid () in
  let objs, rels = alarms_cluster () in
  check_ok "insert" (Rigid.insert_cluster t ~objs ~rels);
  let snap1 = Rigid.Full_copy.take t in
  let objs2, rels2 = alarms_cluster ~name:"Events" ~action:"H2" () in
  check_ok "more data" (Rigid.insert_cluster t ~objs:objs2 ~rels:rels2);
  let snap2 = Rigid.Full_copy.take t in
  (* full copies grow with the database, not with the delta *)
  Alcotest.(check bool) "copies grow" true
    (Rigid.Full_copy.size_bytes snap2 > Rigid.Full_copy.size_bytes snap1)

let test_raw_store () =
  let t = Raw.create () in
  Raw.put_object t ~name:"A" ~cls:"Data";
  Raw.put_object t ~name:"B" ~cls:"Action";
  Raw.set_attr t ~name:"A" ~attr:"Description" (Value.String "d");
  Raw.add_rel t ~assoc:"Read" ~from_:"A" ~to_:"B";
  Alcotest.(check bool) "mem" true (Raw.mem t "A");
  Alcotest.(check (option string)) "class" (Some "Data") (Raw.class_of t "A");
  Alcotest.(check bool) "attr" true
    (Raw.get_attr t ~name:"A" ~attr:"Description" = Some (Value.String "d"));
  Alcotest.(check int) "rels" 1 (List.length (Raw.rels_of t "A"));
  (* no checking whatsoever: nonsense goes straight in *)
  Raw.add_rel t ~assoc:"Read" ~from_:"Ghost" ~to_:"Phantom";
  Alcotest.(check int) "nonsense accepted" 2 (Raw.rel_count t);
  Raw.delete_object t "A";
  Alcotest.(check bool) "gone" false (Raw.mem t "A");
  Alcotest.(check int) "rels pruned" 1 (Raw.rel_count t)

let test_seed_vs_rigid_divergence () =
  (* the headline behavioural difference, side by side: the same
     evolutionary workload succeeds step-by-step in SEED and is
     impossible stepwise in the conventional store *)
  let module DB = Seed_core.Database in
  let seed = fresh_db () in
  check_ok "seed step 1"
    (Result.map (fun _ -> ()) (DB.create_object seed ~cls:"Thing" ~name:"Alarms" ()));
  let t = rigid () in
  check_err "rigid step 1 impossible"
    (function Seed_util.Seed_error.Schema_violation _ -> true | _ -> false)
    (Rigid.insert_cluster t
       ~objs:[ { Rigid.no_name = "Alarms"; no_cls = "Thing"; no_value = None; no_subs = [] } ]
       ~rels:[])

let () =
  Alcotest.run "baseline"
    [
      ( "rigid store",
        [
          tc "accepts complete clusters" test_rigid_accepts_complete_cluster;
          tc "refuses incomplete (paper ex. 2)" test_rigid_refuses_incomplete;
          tc "refuses vague (paper ex. 1)" test_rigid_refuses_vague;
          tc "all-or-nothing" test_rigid_all_or_nothing;
          tc "membership and types" test_rigid_membership_and_types;
          tc "duplicates" test_rigid_duplicate;
          tc "acyclic" test_rigid_acyclic;
          tc "referential integrity on delete" test_rigid_delete_referential_integrity;
          tc "value updates" test_rigid_set_value;
        ] );
      ( "full-copy versioning", [ tc "snapshots" test_full_copy_versioning ] );
      ( "raw store", [ tc "no checking" test_raw_store ] );
      ( "divergence", [ tc "seed vs rigid" test_seed_vs_rigid_divergence ] );
    ]
