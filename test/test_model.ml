(* Model-based random testing of the database engine.

   Random operation sequences run against the Fig. 3 schema; individual
   operations may legitimately fail (that is the consistency checker
   doing its job) — what must NEVER break are the global invariants:

   1. the current state passes the full consistency sweep;
   2. the name index agrees with a scan of the item table;
   3. saved versions are immutable: the fingerprint of every saved
      version, taken when it was created, matches forever after;
   4. encode/decode is lossless for the current state and for every
      saved version. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module View = Seed_core.View
module Item = Seed_core.Item

(* ------------------------------------------------------------------ *)
(* Symbolic operations                                                  *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * string  (* name seed, class *)
  | CreatePattern of int
  | CreateSub of int * string  (* parent pick, role *)
  | CreateRel of int * int * string  (* endpoint picks, assoc *)
  | SetValue of int * string option  (* item pick *)
  | Reclassify of int * string
  | Delete of int
  | Inherit of int * int
  | Snapshot
  | Branch of int  (* version pick *)

let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]
let roles = [ "Description"; "Keywords"; "Text"; "Revised" ]
let assocs = [ "Access"; "Read"; "Write"; "Contained" ]

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (4, map2 (fun i c -> Create (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> CreatePattern i) (int_bound 40));
      (3, map2 (fun p r -> CreateSub (p, r)) (int_bound 40) (oneofl roles));
      ( 3,
        map3
          (fun a b s -> CreateRel (a, b, s))
          (int_bound 40) (int_bound 40) (oneofl assocs) );
      ( 2,
        map2
          (fun i v -> SetValue (i, v))
          (int_bound 40)
          (opt (map (fun s -> s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6))))
      );
      (2, map2 (fun i c -> Reclassify (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> Delete i) (int_bound 40));
      (1, map2 (fun p i -> Inherit (p, i)) (int_bound 40) (int_bound 40));
      (1, return Snapshot);
      (1, map (fun i -> Branch i) (int_bound 8));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 0 80) op_gen)

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

type env = {
  db : DB.t;
  mutable objects : Ident.t list;  (* independent objects ever created *)
  mutable subs : Ident.t list;
  mutable patterns : Ident.t list;
  mutable versions : Version_id.t list;
  mutable fingerprints : (Version_id.t * string) list;
}

let pick xs i = match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let fingerprint_view v =
  let buf = Buffer.create 256 in
  let items =
    Seed_core.Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it -> it :: acc)
    |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)
  in
  List.iter
    (fun (it : Item.t) ->
      match View.state v it with
      | Item.Absent -> ()
      | Item.Obj o ->
        Buffer.add_string buf
          (Printf.sprintf "O%d:%s:%s:%s:%b:%b:%s;" (Ident.to_int it.Item.id)
             (Option.value o.name ~default:"-")
             o.cls
             (match o.value with Some v -> Value.to_string v | None -> "-")
             o.pattern o.deleted
             (String.concat ","
                (List.map (fun i -> string_of_int (Ident.to_int i)) o.inherits)))
      | Item.Rel r ->
        Buffer.add_string buf
          (Printf.sprintf "R%d:%s:%s:%b:%b;" (Ident.to_int it.Item.id)
             r.assoc
             (String.concat ","
                (List.map (fun i -> string_of_int (Ident.to_int i)) r.endpoints))
             r.rel_pattern r.rel_deleted))
    items;
  Buffer.contents buf

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
  | CreateSub (p, role) -> (
    match pick (env.objects @ env.patterns) p with
    | None -> ()
    | Some parent -> (
      let value =
        if role = "Description" || role = "Keywords" then
          Some (Value.String "x")
        else None
      in
      match DB.create_sub_object env.db ~parent ~role ?value () with
      | Ok id -> env.subs <- id :: env.subs
      | Error _ -> ()))
  | CreateRel (a, b, assoc) -> (
    match (pick env.objects a, pick env.objects b) with
    | Some x, Some y ->
      ignore_result (DB.create_relationship env.db ~assoc ~endpoints:[ x; y ] ())
    | _ -> ())
  | SetValue (i, v) -> (
    match pick env.subs i with
    | None -> ()
    | Some id ->
      ignore_result
        (DB.set_value env.db id (Option.map (fun s -> Value.String s) v)))
  | Reclassify (i, cls) -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.reclassify env.db id ~to_:cls))
  | Delete i -> (
    match pick (env.objects @ env.subs) i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
  | Inherit (p, i) -> (
    match (pick env.patterns p, pick env.objects i) with
    | Some pattern, Some inheritor ->
      ignore_result (DB.inherit_pattern env.db ~pattern ~inheritor)
    | _ -> ())
  | Snapshot -> (
    match DB.create_version env.db with
    | Ok v ->
      env.versions <- v :: env.versions;
      env.fingerprints <-
        (v, fingerprint_view (View.at (DB.raw env.db) v)) :: env.fingerprints
    | Error _ -> ())
  | Branch i -> (
    match pick env.versions i with
    | None -> ()
    | Some v -> ignore_result (DB.begin_alternative env.db ~from_:v ~force:true ()))

(* ------------------------------------------------------------------ *)
(* Invariants                                                           *)
(* ------------------------------------------------------------------ *)

let consistency_holds env =
  match Seed_core.Consistency.check_database (View.current (DB.raw env.db)) with
  | Ok () -> true
  | Error _ -> false

let name_index_agrees env =
  let st = DB.raw env.db in
  let v = View.current st in
  let scan =
    Seed_core.Db_state.fold_items st ~init:[] ~f:(fun acc it ->
        match (it.Item.body, View.state v it) with
        | Item.Independent, Item.Obj { name = Some n; deleted = false; _ } ->
          (n, it.Item.id) :: acc
        | _ -> acc)
  in
  List.for_all
    (fun (n, id) ->
      match Seed_core.Db_state.(find_id_by_name (extents st)) n with
      | Some found -> Ident.equal found id
      | None -> false)
    scan
  (* and no duplicate names *)
  && List.length (List.sort_uniq compare (List.map fst scan)) = List.length scan

let versions_immutable env =
  List.for_all
    (fun (v, fp) ->
      String.equal fp (fingerprint_view (View.at (DB.raw env.db) v)))
    env.fingerprints

let roundtrip_lossless env =
  match Seed_core.Persist.decode_db (Seed_core.Persist.encode_db env.db) with
  | Error _ -> false
  | Ok db2 ->
    String.equal
      (fingerprint_view (View.current (DB.raw env.db)))
      (fingerprint_view (View.current (DB.raw db2)))
    && List.for_all
         (fun (v, fp) ->
           String.equal fp (fingerprint_view (View.at (DB.raw db2) v)))
         env.fingerprints

let run_model ops =
  let env =
    {
      db = DB.create (fig3_schema ());
      objects = [];
      subs = [];
      patterns = [];
      versions = [];
      fingerprints = [];
    }
  in
  List.iter (apply env) ops;
  env

let prop_consistency =
  qcheck_case ~count:120 "consistency holds after any op sequence" ops_gen
    (fun ops -> consistency_holds (run_model ops))

let prop_name_index =
  qcheck_case ~count:120 "name index agrees with a table scan" ops_gen
    (fun ops -> name_index_agrees (run_model ops))

let prop_versions_immutable =
  qcheck_case ~count:120 "saved versions never change" ops_gen (fun ops ->
      versions_immutable (run_model ops))

let prop_roundtrip =
  qcheck_case ~count:60 "persistence roundtrip is lossless" ops_gen (fun ops ->
      roundtrip_lossless (run_model ops))

let prop_all_after_each_op =
  (* the strictest variant: invariants hold at every prefix, not just at
     the end *)
  qcheck_case ~count:40 "invariants hold after every prefix"
    QCheck2.Gen.(list_size (int_range 0 30) op_gen)
    (fun ops ->
      let env =
        {
          db = DB.create (fig3_schema ());
          objects = [];
          subs = [];
          patterns = [];
          versions = [];
          fingerprints = [];
        }
      in
      List.for_all
        (fun op ->
          apply env op;
          consistency_holds env && name_index_agrees env
          && versions_immutable env)
        ops)

let () =
  Alcotest.run "model"
    [
      ( "random operations",
        [
          prop_consistency;
          prop_name_index;
          prop_versions_immutable;
          prop_roundtrip;
          prop_all_after_each_op;
        ] );
    ]
