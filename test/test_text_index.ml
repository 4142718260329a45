(* Trigram index / scan equivalence for containment search.

   [Query.contains]/[Query.matches] answer from the trigram index; their
   one obligation is to return exactly what re-testing the
   predicate over a naive item-table scan returns — after any operation
   sequence (text creates, updates, clears, deletes, re-classification,
   transaction rollback, branch switches), on current and on version
   views, and across an encode/decode reopen. A second invariant pins
   the maintenance itself: the incrementally maintained index must hold
   the same documents as a wholesale rebuild from the live states. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module Persist = Seed_core.Persist
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query
module Text_index = Seed_core.Text_index

(* ------------------------------------------------------------------ *)
(* Symbolic operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Texts share trigrams aggressively ("recovery", "recover", repeated
   letters) so posting lists overlap and verification has false
   candidates to reject. Short and empty strings ride along. *)
let texts =
  [|
    "";
    "ab";
    "abc";
    "abcabc";
    "aaaa";
    "recover";
    "the recovery path";
    "spec 7 revises the recovery path";
    "keyword: alarm reset";
    "alarm";
    "mississippi";
    "self-describing specification text";
  |]

let text i = texts.(i mod Array.length texts)
let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]

(* Simple (non-structuring) operations, reusable inside transactions. *)
type sop =
  | Create of int * string
  | MkText of int  (** a [Data.Text] node: carriers can nest below it *)
  | MkCarrier of int * int * int  (** role choice, owner, text *)
  | SetText of int * int  (** carrier, new text *)
  | ClearText of int
  | Reclassify of int * string
  | Delete of int  (** an independent: cascades over its carriers *)
  | DeleteCarrier of int

type op =
  | Op of sop
  | Txn of sop list * bool  (** batched apply; [false] rolls back *)
  | Snapshot
  | Branch of int

let sop_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map2 (fun i c -> Create (i, c)) (int_bound 40) (oneofl classes));
      (3, map (fun i -> MkText i) (int_bound 40));
      ( 9,
        map3
          (fun r o t -> MkCarrier (r, o, t))
          (int_bound 5) (int_bound 40) (int_bound 40) );
      (5, map2 (fun c t -> SetText (c, t)) (int_bound 40) (int_bound 40));
      (1, map (fun c -> ClearText c) (int_bound 40));
      (2, map2 (fun i c -> Reclassify (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> Delete i) (int_bound 40));
      (1, map (fun c -> DeleteCarrier c) (int_bound 40));
    ]

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (10, map (fun s -> Op s) sop_gen);
      (1, map2 (fun sops ok -> Txn (sops, ok)) (list_size (int_range 1 6) sop_gen) bool);
      (1, return Snapshot);
      (1, map (fun i -> Branch i) (int_bound 2));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 0 80) op_gen)

type env = {
  mutable db : DB.t;
  mutable stamp : int;  (** uniquifies object names across branches *)
  mutable objects : Ident.t list;
  mutable texts : Ident.t list;  (** Data.Text nodes *)
  mutable carriers : Ident.t list;  (** string-valued sub-objects *)
  mutable versions : Version_id.t list;
}

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let apply_sop env sop =
  let ignore_result (r : (_, Seed_error.t) result) = ignore r in
  match sop with
  | Create (i, cls) -> (
    env.stamp <- env.stamp + 1;
    match
      DB.create_object env.db ~cls
        ~name:(Printf.sprintf "obj%d_%d" i env.stamp) ()
    with
    | Ok id -> env.objects <- id :: env.objects
    | Error _ -> ())
  | MkText i -> (
    match pick env.objects i with
    | None -> ()
    | Some parent -> (
      match DB.create_sub_object env.db ~parent ~role:"Text" () with
      | Ok id -> env.texts <- id :: env.texts
      | Error _ -> ()))
  | MkCarrier (r, o, t) -> (
    (* Description/Keywords hang off any Thing; Body/Selector off a
       Data.Text node — exercising paths at different nesting depths *)
    let choice =
      match r mod 5 with
      | 0 | 1 -> Option.map (fun p -> (p, "Description")) (pick env.objects o)
      | 2 -> Option.map (fun p -> (p, "Keywords")) (pick env.objects o)
      | 3 -> Option.map (fun p -> (p, "Body")) (pick env.texts o)
      | _ -> Option.map (fun p -> (p, "Selector")) (pick env.texts o)
    in
    match choice with
    | None -> ()
    | Some (parent, role) -> (
      match
        DB.create_sub_object env.db ~parent ~role
          ~value:(Value.String (text t)) ()
      with
      | Ok id -> env.carriers <- id :: env.carriers
      | Error _ -> ()))
  | SetText (c, t) -> (
    match pick env.carriers c with
    | None -> ()
    | Some id ->
      ignore_result (DB.set_value env.db id (Some (Value.String (text t)))))
  | ClearText c -> (
    match pick env.carriers c with
    | None -> ()
    | Some id -> ignore_result (DB.set_value env.db id None))
  | Reclassify (i, cls) -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.reclassify env.db id ~to_:cls))
  | Delete i -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
  | DeleteCarrier c -> (
    match pick env.carriers c with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))

let apply env op =
  match op with
  | Op sop -> apply_sop env sop
  | Txn (sops, commit) ->
    (* id lists may keep ids a rollback erased; later picks on them
       just fail and are ignored, like any other refused operation *)
    ignore
      (DB.with_transaction env.db (fun () ->
           List.iter (apply_sop env) sops;
           if commit then Ok () else Error (Seed_error.Invalid_operation "rollback")))
  | Snapshot -> (
    match DB.create_version env.db with
    | Ok v -> env.versions <- v :: env.versions
    | Error _ -> ())
  | Branch i -> (
    match pick env.versions i with
    | None -> ()
    | Some v ->
      ignore (DB.begin_alternative env.db ~from_:v ~force:true ()))

let fresh_env () =
  {
    db = DB.create (fig3_schema ());
    stamp = 0;
    objects = [];
    texts = [];
    carriers = [];
    versions = [];
  }

let run_model ops =
  let env = fresh_env () in
  List.iter (apply env) ops;
  env

(* ------------------------------------------------------------------ *)
(* The two invariants                                                   *)
(* ------------------------------------------------------------------ *)

let sorted_ids items =
  List.map (fun (it : Item.t) -> it.Item.id) items |> List.sort Ident.compare

(* The naive reference bypasses the planner entirely: [Q.test] on
   Contains/Matches reads the strings through the view, never the
   index. *)
let naive_select v p =
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      if
        it.Item.body = Item.Independent
        && View.live_normal v it
        && Q.test p v it
      then it.Item.id :: acc
      else acc)
  |> List.sort Ident.compare

(* Planted needles, common needles, negatives, sub-trigram shorties
   (scan fallback), path-scoped probes at both nesting depths, and
   conjunctions with the class planner — each with the needles it names,
   which bound what [explain] may report probing. *)
let needled_pool =
  [
    ([ "recovery" ], Q.contains "" "recovery");
    ([ "recover" ], Q.contains "" "recover");
    ([ "the recovery path" ], Q.contains "" "the recovery path");
    ([ "issip" ], Q.contains "" "issip");
    ([ "aaa" ], Q.contains "" "aaa");
    ([ "abcab" ], Q.contains "" "abcab");
    ([ "no-such-needle" ], Q.contains "" "no-such-needle");
    ([ "ab" ], Q.contains "" "ab");
    ([ "z" ], Q.contains "" "z");
    ([ "" ], Q.contains "" "");
    ([ "recovery" ], Q.contains "Thing.Description" "recovery");
    ([ "alarm" ], Q.contains "Thing.Keywords" "alarm");
    ([ "spec" ], Q.contains "Data.Text.Body" "spec");
    ([ "recovery" ], Q.contains "Data.Text.Selector" "recovery");
    ([ "recovery" ], Q.contains "No.Such.Path" "recovery");
    ([ "spec"; "recovery path" ], Q.matches "" [ "spec"; "recovery path" ]);
    ([ "alarm"; "reset" ], Q.matches "" [ "alarm"; "reset" ]);
    ([ "recovery"; "xyzzy" ], Q.matches "" [ "recovery"; "xyzzy" ]);
    ([ "ab"; "recovery" ], Q.matches "" [ "ab"; "recovery" ]);
    ([], Q.matches "" []);
    ([ "recovery" ], Q.(is_a "Data" &&& contains "" "recovery"));
    ([ "alarm" ], Q.(in_class "Action" &&& contains "Thing.Description" "alarm"));
    ([ "spec"; "alarm" ], Q.(contains "" "spec" ||| contains "" "alarm"));
    ([ "recovery" ], Q.(not_ (contains "" "recovery")));
  ]

let predicate_pool = List.map snd needled_pool

let views env =
  let st = DB.raw env.db in
  View.current st :: List.map (View.at st) env.versions

let select_agrees env =
  List.for_all
    (fun v ->
      List.for_all
        (fun (needles, p) ->
          let planned = sorted_ids (Q.select v p) in
          planned = naive_select v p
          && Q.count v p = List.length planned
          && explain_sound ~needles ~hits:(List.length planned) v p)
        needled_pool)
    (views env)

let index_consistent env =
  let st = DB.raw env.db in
  match Db_state.text_index st with
  | None -> true
  | Some tx -> Text_index.equal tx (Db_state.rebuilt_text_index st)

(* ------------------------------------------------------------------ *)
(* Randomized properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_select =
  qcheck_case ~count:80 "indexed select/count = naive scan" ops_gen (fun ops ->
      select_agrees (run_model ops))

let prop_consistent =
  qcheck_case ~count:80 "incremental index = wholesale rebuild" ops_gen
    (fun ops -> index_consistent (run_model ops))

let prop_all_prefixes =
  qcheck_case ~count:25 "index agrees at every prefix"
    QCheck2.Gen.(list_size (int_range 0 20) op_gen)
    (fun ops ->
      let env = fresh_env () in
      List.for_all
        (fun op ->
          apply env op;
          index_consistent env && select_agrees env)
        ops)

let prop_reopen =
  qcheck_case ~count:50 "reopen rebuilds an equivalent index" ops_gen
    (fun ops ->
      let env = run_model ops in
      let db2 = ok (Persist.decode_db (Persist.encode_db env.db)) in
      let env2 = { env with db = db2 } in
      index_consistent env2 && select_agrees env2)

let prop_disable =
  qcheck_case ~count:50 "disable falls back to scan; re-enable rebuilds"
    ops_gen (fun ops ->
      let env = run_model ops in
      DB.set_text_index_enabled env.db false;
      let off_ok =
        (Db_state.text_index (DB.raw env.db) = None) && select_agrees env
      in
      DB.set_text_index_enabled env.db true;
      off_ok && index_consistent env && select_agrees env)

(* ------------------------------------------------------------------ *)
(* Folds                                                                *)
(*                                                                      *)
(* The overlay folds into a rebuilt base only past 256 entries, beyond  *)
(* the randomized runs' reach; these runs cross several folds. A fold   *)
(* shows as a change in the base's posting count.                       *)
(* ------------------------------------------------------------------ *)

let base_postings env =
  match Db_state.text_index (DB.raw env.db) with
  | Some tx -> (Text_index.stats tx).Text_index.postings
  | None -> -1

(* [n] seeded text operations, mostly rewrites. *)
let churn env rng n =
  for _ = 1 to n do
    let r = Random.State.int rng 1000 and t = Random.State.int rng 1000 in
    apply_sop env
      (match Random.State.int rng 20 with
      | 0 -> Create (r, List.nth classes (r mod List.length classes))
      | 1 | 2 -> MkCarrier (r, r, t)
      | 3 -> DeleteCarrier r
      | 4 -> ClearText r
      | _ -> SetText (r, t))
  done

(* A Description and a Keywords on each of [objects] objects, a Body and
   a Selector on each of 20 text nodes: ~340 carriers by default. *)
let seeded_env ?(objects = 150) () =
  let env = fresh_env () in
  List.iter (apply_sop env)
    (List.init objects (fun i -> Create (i, List.nth classes (i mod 5)))
    @ List.init 20 (fun i -> MkText i)
    @ List.concat_map
        (fun i -> [ MkCarrier (0, i, i); MkCarrier (2, i, i + 1) ])
        (List.init objects Fun.id)
    @ List.concat_map
        (fun i -> [ MkCarrier (3, i, i); MkCarrier (4, i, i + 2) ])
        (List.init 20 Fun.id));
  env

(* The carriers of every needle, as a set: one lookup per needle, one
   probe *)
let query tx ?(path = "") needles =
  let found = ref Ident.Set.empty in
  ignore
    (Text_index.query_probe tx ~path (List.map (Text_index.lookup tx) needles) (fun id ->
         found := Ident.Set.add id !found));
  !found

(* Index probes straight from [Text_index.query_probe], whatever the
   planner's cutoff would pick, against the live strings: with an
   overlay of up to 256 documents the planner scans these small
   stores. *)
let probes_exact st =
  let tx = Option.get (Db_state.text_index st) in
  List.for_all
    (fun (path, needles) ->
      let naive =
        Db_state.fold_items st ~init:Ident.Set.empty ~f:(fun acc it ->
            match it.Item.current with
            | Item.Obj { deleted = false; value = Some (Value.String s); cls; _ }
              when Option.fold ~none:true ~some:(String.equal cls) path
                   && Text_index.contains_all s needles ->
              Ident.Set.add it.Item.id acc
            | _ -> acc)
      in
      naive = query tx ?path needles)
    [ (None, [ "recovery" ]); (None, [ "the recovery path" ]); (None, [ "issip" ]);
      (None, [ "aaa" ]); (None, [ "abcab" ]); (None, [ "no-such-needle" ]);
      (None, [ "spec"; "recovery path" ]); (None, [ "alarm"; "reset" ]);
      (None, [ "recover"; "xyzzy" ]); (Some "Thing.Description", [ "recover" ]);
      (Some "Thing.Keywords", [ "alarm" ]); (Some "Data.Text.Body", [ "spec" ]) ]

let answers v = List.map (fun p -> sorted_ids (Q.select v p)) predicate_pool

let test_fold_churn () =
  let env = seeded_env () and rng = Random.State.make [| 16 |] in
  let folds = ref 0 in
  for batch = 1 to 20 do
    let before = base_postings env in
    churn env rng 100;
    if base_postings env <> before then incr folds;
    Alcotest.(check bool)
      (Printf.sprintf "batch %d: incremental = rebuilt" batch)
      true (index_consistent env);
    Alcotest.(check bool)
      (Printf.sprintf "batch %d: indexed select = scan" batch)
      true (select_agrees env);
    Alcotest.(check bool)
      (Printf.sprintf "batch %d: index probes exact" batch)
      true (probes_exact (DB.raw env.db))
  done;
  Alcotest.(check bool) "crossed several folds" true (!folds >= 3)

let test_fold_snapshot () =
  let env = seeded_env () and rng = Random.State.make [| 17 |] in
  let snap = DB.snapshot_view env.db in
  let pinned = answers snap and before = base_postings env in
  churn env rng 1000;
  Alcotest.(check bool) "folded" true (base_postings env <> before);
  Alcotest.(check (list (list int))) "snapshot answers its own state"
    (List.map (List.map Ident.to_int) pinned)
    (List.map (List.map Ident.to_int) (answers snap));
  Alcotest.(check bool) "pinned answers = scan of the snapshot" true
    (pinned = List.map (naive_select snap) predicate_pool
    && probes_exact (View.db snap))

let test_fold_rollback () =
  let env = seeded_env () and rng = Random.State.make [| 18 |] in
  let index () = Option.get (Db_state.text_index (DB.raw env.db)) in
  let tx0 = index () and before = answers (View.current (DB.raw env.db)) in
  let folded = ref false in
  ignore
    (DB.with_transaction env.db (fun () ->
         let p0 = base_postings env in
         churn env rng 600;
         folded := base_postings env <> p0;
         Error (Seed_error.Invalid_operation "rollback")));
  Alcotest.(check bool) "the transaction folded" true !folded;
  Alcotest.(check bool) "pre-fold index restored" true
    (Text_index.equal tx0 (index ()));
  Alcotest.(check bool) "pre-fold answers restored" true
    (before = answers (View.current (DB.raw env.db)));
  Alcotest.(check bool) "consistent after rollback" true
    (index_consistent env && select_agrees env && probes_exact (DB.raw env.db))

(* ------------------------------------------------------------------ *)
(* Tiers                                                                *)
(*                                                                      *)
(* A fold merges the overlay into the recent tier, and the recent tier  *)
(* merges into the main one once it holds over 1/4 as many entries.     *)
(* Under the 256-entry fold floor a recent tier outlives its first fold *)
(* only past ~1030 documents, so these cases keep ~1200. At every step  *)
(* they check the index against [of_docs] of the same documents and     *)
(* every probe against naive containment.                               *)
(* ------------------------------------------------------------------ *)

let tiers tx = (Text_index.stats tx).Text_index.tiers

(* The documents an index should hold: carrier -> (path, text). *)
module Model = Map.Make (Int)

let model_index m =
  Text_index.of_docs (Model.cardinal m) (fun f ->
      Model.iter (fun id (path, s) -> f (Ident.of_int id) ~path s) m)

let model_probes =
  [ (None, [ "issip" ]); (None, [ "alarm reset" ]); (None, [ "no-such-needle" ]);
    (None, [ "spec"; "recovery path" ]); (Some "P", [ "recover" ]); (Some "Q", [ "abcab" ]) ]

(* [tx] holds exactly [m]'s documents, and answers every probe as
   containment over them does. *)
let model_agrees ?(probes = model_probes) tx m =
  Text_index.equal tx (model_index m)
  && Text_index.doc_count tx = Model.cardinal m
  && List.for_all
       (fun (path, needles) ->
         let naive =
           Model.fold
             (fun id (p, s) acc ->
               if
                 Option.fold ~none:true ~some:(String.equal p) path
                 && Text_index.contains_all s needles
               then Ident.Set.add (Ident.of_int id) acc
               else acc)
             m Ident.Set.empty
         in
         naive = query tx ?path needles)
       probes

(* 1200 documents over carriers 0..1199, one tier. *)
let model_start rng =
  let m =
    Seq.fold_left
      (fun m id ->
        Model.add id ((if id mod 2 = 0 then "P" else "Q"), text (Random.State.int rng 1000)) m)
      Model.empty (Seq.init 1200 Fun.id)
  in
  (model_index m, m)

(* One seeded step over carriers 0..1499: a removal one time in five,
   else a text (a fresh copy, so never a no-op). *)
let model_step rng (tx, m) =
  let id = Random.State.int rng 1500 in
  if Random.State.int rng 5 = 0 then (Text_index.remove_doc tx (Ident.of_int id), Model.remove id m)
  else
    let path = if Random.State.bool rng then "P" else "Q" in
    let s = Bytes.to_string (Bytes.of_string (text (Random.State.int rng 1000))) in
    (Text_index.add_doc tx (Ident.of_int id) ~path s, Model.add id (path, s) m)

(* Steps until [stop] holds of the tier counts before and after a step,
   checking the index against its model at every step. *)
let model_until rng state stop =
  let rec go n ((tx, _) as state) =
    if n = 0 then Alcotest.fail "no tier change within 5000 steps";
    let ((tx', m') as state') = model_step rng state in
    Alcotest.(check bool) "index = of_docs, probes = containment" true
      (model_agrees tx' m');
    if stop (tiers tx) (tiers tx') then state' else go (n - 1) state'
  in
  go 5000 state

(* Rewrites, removals and new carriers across several tier merges.
   Removals of carriers the main tier holds shadow them as tombstones in
   the recent tier: each fold into an empty recent tier carries those
   since the last tier merge. *)
let test_tier_churn () =
  let rng = Random.State.make [| 36 |] in
  let state = ref (model_start rng) in
  let main = ref (snd !state) and merges = ref 0 and tombstones = ref 0 in
  while !merges < 2 do
    (* a fold into the empty recent tier *)
    state := model_until rng !state (fun a b -> a = 1 && b = 2);
    let m = snd !state in
    tombstones :=
      !tombstones + Model.cardinal (Model.filter (fun id _ -> not (Model.mem id m)) !main);
    (* then the fold that merges the recent tier into the main one *)
    state := model_until rng !state (fun a b -> a = 2 && b = 1);
    main := snd !state;
    incr merges
  done;
  Alcotest.(check bool) "main-tier carriers removed through the recent tier" true
    (!tombstones > 0)

let test_tier_snapshot () =
  let rng = Random.State.make [| 37 |] in
  let state = model_until rng (model_start rng) (fun a b -> a = 1 && b = 2) in
  let pinned, pinned_m = state in
  let answers tx = List.map (fun (path, needles) -> query tx ?path needles) model_probes in
  let before = answers pinned in
  let tx, _ = model_until rng state (fun a b -> a = 2 && b = 1) in
  Alcotest.(check int) "merged into one tier" 1 (tiers tx);
  Alcotest.(check int) "pinned index keeps its recent tier" 2 (tiers pinned);
  Alcotest.(check bool) "pinned index = of_docs, probes = containment" true
    (model_agrees pinned pinned_m);
  Alcotest.(check bool) "pinned answers unchanged" true
    (before = answers pinned)

(* Through the database: a transaction whose update merges the recent
   tier into the main one rolls back to the two-tier index. *)
let test_tier_rollback () =
  let env = seeded_env ~objects:600 () and rng = Random.State.make [| 38 |] in
  let index () = Option.get (Db_state.text_index (DB.raw env.db)) in
  let agrees () = index_consistent env && probes_exact (DB.raw env.db) in
  (* one op at a time until [stop] holds of the tier counts around it *)
  let until stop =
    let rec go n =
      if n = 0 then Alcotest.fail "no tier change within 5000 operations";
      let a = tiers (index ()) in
      churn env rng 1;
      Alcotest.(check bool) "incremental = rebuilt, probes exact" true (agrees ());
      if not (stop a (tiers (index ()))) then go (n - 1)
    in
    go 5000
  in
  until (fun a b -> a = 1 && b = 2);
  let tx0 = index () and before = answers (View.current (DB.raw env.db)) in
  let merged = ref false in
  ignore
    (DB.with_transaction env.db (fun () ->
         until (fun a b -> a = 2 && b = 1);
         merged := select_agrees env;
         Error (Seed_error.Invalid_operation "rollback")));
  Alcotest.(check bool) "the transaction merged the tiers, selects exact" true !merged;
  Alcotest.(check bool) "two-tier index restored" true
    (Text_index.equal tx0 (index ()) && tiers (index ()) = 2);
  Alcotest.(check bool) "answers restored" true
    (before = answers (View.current (DB.raw env.db)));
  Alcotest.(check bool) "consistent after rollback" true (agrees () && select_agrees env)

(* ------------------------------------------------------------------ *)
(* Posting encodings                                                    *)
(*                                                                      *)
(* A posting is a bitmap over its tier's slots or a list of varint slot *)
(* gaps, whichever is smaller. The choice is invisible to answers, so   *)
(* these cases build postings of each kind and each gap width, and      *)
(* turn one kind into the other through a fold and a tier merge,        *)
(* checking the index against [of_docs] and every probe against naive   *)
(* containment.                                                         *)
(* ------------------------------------------------------------------ *)

let encoding_probes =
  [ (None, [ "zqxj" ]); (None, [ "the" ]); (None, [ "the"; "zqxj" ]); (None, [ "zqxj 7" ]);
    (Some "P", [ "zqxj" ]); (Some "Q", [ "the" ]); (None, [ "plain" ]); (None, [ "no-such" ]) ]

(* One tier of 34000 documents: "the" in every one (a bitmap), "zqxj" at
   slots whose gaps take 1, 2 and 3 varint bytes, each at its
   boundary. *)
let test_encodings_one_tier () =
  let marked = [ 0; 127; 255; 16638; 33022; 33023 ] in
  let m =
    Seq.fold_left
      (fun m id ->
        let path = if id mod 3 = 0 then "P" else "Q" in
        let s = if List.mem id marked then Printf.sprintf "the zqxj %d" id else Printf.sprintf "the %d" id in
        Model.add id (path, s) m)
      Model.empty (Seq.init 34000 Fun.id)
  in
  let tx = model_index m in
  Alcotest.(check int) "one tier" 1 (tiers tx);
  Alcotest.(check bool) "index = of_docs, probes = containment" true
    (model_agrees ~probes:encoding_probes tx m);
  Alcotest.(check int) "every marked slot found" (List.length marked)
    (Ident.Set.cardinal (query tx [ "zqxj" ]))

(* Folds into the recent tier and its merge into the main one, checked
   after each: a fold turns the recent tier's "zqxj" list into a bitmap,
   and the tier merge drops the removed main documents' tombstones and
   turns that bitmap into a list over the larger main tier. *)
let test_encodings_across_merges () =
  let m =
    Seq.fold_left
      (fun m id -> Model.add id ((if id mod 2 = 0 then "P" else "Q"), text id) m)
      Model.empty (Seq.init 3000 Fun.id)
  in
  let state = ref (model_index m, m) in
  let add id s =
    let tx, m = !state in
    state := (Text_index.add_doc tx (Ident.of_int id) ~path:"P" s, Model.add id ("P", s) m)
  in
  let remove id =
    let tx, m = !state in
    state := (Text_index.remove_doc tx (Ident.of_int id), Model.remove id m)
  in
  let check label expected_tiers =
    let tx, m = !state in
    Alcotest.(check int) (label ^ ": tiers") expected_tiers (tiers tx);
    Alcotest.(check bool) (label ^ ": index = of_docs, probes = containment") true
      (model_agrees ~probes:encoding_probes tx m)
  in
  (* 250 removals (tombstones) and 7 marked documents: a list *)
  for id = 0 to 249 do
    remove (id * 12)
  done;
  for id = 3000 to 3006 do
    add id (Printf.sprintf "zqxj %d" id)
  done;
  check "first fold" 2;
  (* 257 more marked documents: over half the recent tier, a bitmap *)
  for id = 3007 to 3263 do
    add id (Printf.sprintf "the zqxj %d" id)
  done;
  check "second fold" 2;
  (* 257 unmarked ones: the recent tier passes 1/4 of the main one *)
  for id = 3264 to 3520 do
    add id (Printf.sprintf "plain %d" id)
  done;
  check "tier merge" 1;
  Alcotest.(check int) "marked documents" 264
    (Ident.Set.cardinal (query (fst !state) [ "zqxj" ]))

(* The size rule, seen in [stats]: a tier of 200 documents, "abc" in
   every one and "xyz" in one. "abc" is a 25-byte bitmap (5 words with
   header and padding) against 200 bytes of gaps; each of "bcx", "cxy"
   and "xyz" a 1-byte list (2 words) against a 25-byte bitmap. Above
   the empty index: three words per slot and per trigram, plus these. *)
let test_encodings_size () =
  let open Text_index in
  let t =
    of_docs 200 (fun f ->
        for i = 0 to 199 do
          f (Ident.of_int i) ~path:"P" (if i = 7 then "abcxyz" else "abc")
        done)
  in
  let words = (3 * 200) + (3 * 4) + 5 + (3 * 2) in
  Alcotest.(check int) "bytes as laid out" (8 * words) ((stats t).bytes - (stats empty).bytes);
  Alcotest.(check int) "postings" 203 (stats t).postings

(* ------------------------------------------------------------------ *)
(* Directed cases                                                       *)
(* ------------------------------------------------------------------ *)

let test_structure () =
  let open Text_index in
  let id i = Ident.of_int i in
  let of_docs docs =
    of_docs (List.length docs) (fun f -> List.iter (fun (i, path, s) -> f i ~path s) docs)
  in
  Alcotest.(check int) "empty" 0 (doc_count empty);
  let docs =
    [ (id 1, "P", "the recovery path"); (id 2, "Q", "recover quickly");
      (id 3, "P", "aaaa") ]
  in
  let added =
    List.fold_left (fun t (i, path, s) -> add_doc t i ~path s) empty
      (List.rev docs)
  in
  (* the same documents in the overlay and in a packed base *)
  List.iter
    (fun (label, t) ->
      let check name = Alcotest.(check int) (label ^ ": " ^ name) in
      check "docs" 3 (doc_count t);
      let hits ?path needle = Ident.Set.cardinal (query t ?path [ needle ]) in
      check "shared stem" 2 (hits "recover");
      check "full phrase" 1 (hits "the recovery path");
      (* overlapping occurrences: "aaaa" holds "aaa" at offsets 0 and 1 *)
      check "overlap" 1 (hits "aaa");
      check "negative" 0 (hits "covery path x");
      (* trigrams present but never adjacent: verification must reject *)
      check "adjacency" 0 (hits "pathrec");
      check "path scope" 1 (hits ~path:"Q" "recover");
      check "wrong path" 0 (hits ~path:"Z" "recover");
      (* conjunctive: every needle in the same document *)
      check "conjunction" 1 (Ident.Set.cardinal (query t [ "recover"; "path" ]));
      check "split conjunction" 0 (Ident.Set.cardinal (query t [ "quickly"; "path" ]));
      let t = remove_doc t (id 2) in
      check "after remove" 1 (Ident.Set.cardinal (query t [ "recover" ]));
      check "docs after remove" 2 (stats t).docs;
      check "remove absent" 2 (doc_count (remove_doc t (id 9))))
    [ ("overlay", added); ("base", of_docs docs) ];
  Alcotest.(check bool) "equal across layouts" true (equal added (of_docs docs));
  (* "xyzw yzwx" holds every trigram of "xyzwx" but not the needle *)
  List.iter
    (fun t ->
      Alcotest.(check int) "trigrams without the needle" 0
        (Ident.Set.cardinal (query t [ "xyz"; "xyzwx" ])))
    [ of_docs [ (id 1, "P", "xyzw yzwx") ]; add_doc empty (id 1) ~path:"P" "xyzw yzwx" ];
  let s = stats (of_docs docs) in
  Alcotest.(check bool) "base postings" true (s.postings > 0 && s.trigrams > 0);
  Alcotest.check
    (Alcotest.testable
       (fun ppf e -> Format.fprintf ppf "%s" (Printexc.to_string e))
       (fun a b -> a = b))
    "short needle refused"
    (Invalid_argument "Text_index.lookup: needle shorter than 3 bytes")
    (try
       ignore (query added [ "recover"; "ab" ]);
       Failure "no exception"
     with e -> e)

let test_string_contains () =
  let check name expected hay needle =
    Alcotest.(check bool) name expected (Text_index.contains_all hay [ needle ])
  in
  check "empty needle" true "abc" "";
  check "empty both" true "" "";
  check "needle = haystack" true "abc" "abc";
  check "match at last offset" true "xxabc" "abc";
  check "needle longer than haystack" false "ab" "abc";
  check "overlapping prefix" true "aaab" "aab";
  check "near miss" false "aabaab" "aaa";
  check "empty haystack" false "" "a"

let test_explain () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "the recovery path") ())
  in
  let v = View.current (DB.raw db) in
  (match Q.explain v (Q.contains "" "recovery") with
  | Q.Indexed { texts = [ tp ]; est_candidates; _ } ->
    Alcotest.(check (list string)) "needles" [ "recovery" ] tp.Q.tp_needles;
    Alcotest.(check int) "trigrams" 6 tp.Q.tp_trigrams;
    Alcotest.(check bool) "verified" true (tp.Q.tp_verified >= 1);
    Alcotest.(check int) "candidates bound" 1 est_candidates
  | _ -> Alcotest.fail "expected an indexed plan with one text probe");
  (match Q.explain v (Q.contains "" "ab") with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "short needle must fall back to scan");
  DB.set_text_index_enabled db false;
  (match Q.explain (View.current (DB.raw db)) (Q.contains "" "recovery") with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "disabled index must fall back to scan");
  DB.set_text_index_enabled db true

let test_counters () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "alarm reset") ())
  in
  let v = View.current (DB.raw db) in
  let _ = Q.select v (Q.contains "" "alarm") in
  let _ = Q.select v (Q.contains "" "al") in
  let hits, fallbacks = Db_state.text_counters (DB.raw db) in
  Alcotest.(check bool) "hit counted" true (hits >= 1);
  Alcotest.(check bool) "fallback counted" true (fallbacks >= 1);
  let st = DB.stats db in
  Alcotest.(check bool) "stats enabled" true st.DB.st_text_enabled;
  Alcotest.(check bool) "stats docs" true (st.DB.st_text_docs >= 1);
  Alcotest.(check int) "stats hits" hits st.DB.st_text_hits

let test_version_views () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let d =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "old text here") ())
  in
  let v1 = ok (DB.create_version db) in
  ok (DB.set_value db d (Some (Value.String "new words entirely")));
  let st = DB.raw db in
  let old_v = View.at st v1 and cur_v = View.current st in
  let names v p = List.filter_map (View.full_name v) (Q.select v p) in
  Alcotest.(check (list string)) "old view sees old text" [ "A" ]
    (names old_v (Q.contains "" "old text"));
  Alcotest.(check (list string)) "old view misses new text" []
    (names old_v (Q.contains "" "new words"));
  Alcotest.(check (list string)) "current misses old text" []
    (names cur_v (Q.contains "" "old text"));
  Alcotest.(check (list string)) "current sees new text" [ "A" ]
    (names cur_v (Q.contains "" "new words"))

(* ------------------------------------------------------------------ *)
(* Exactness                                                            *)
(*                                                                      *)
(* An exact plan answers its live normal candidates without re-testing  *)
(* the predicate; these cases pin where a text node may claim it.       *)
(* ------------------------------------------------------------------ *)

let describe db ~parent ?(role = "Description") text =
  ignore
    (ok (DB.create_sub_object db ~parent ~role ~value:(Value.String text) ()))

let selected_names v p = List.filter_map (View.full_name v) (Q.select v p)

(* An indexed plan's text lookups, candidates and exactness. *)
let indexed_plan v p =
  match Q.explain v p with
  | Q.Indexed { texts; candidates; exact; _ } -> (texts, candidates, exact)
  | Q.Scan { reason } -> Alcotest.failf "expected an indexed plan, got a scan: %s" reason

(* A pattern's sub-object carries the needle: its root is a candidate
   of an exact plan, and only the live-normal check keeps it out. *)
let test_exact_pattern () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let p = ok (DB.create_object db ~cls:"Data" ~name:"P" ~pattern:true ()) in
  describe db ~parent:a "the recovery path";
  describe db ~parent:p "a recovery template";
  let v = View.current (DB.raw db) in
  let q = Q.contains "" "recovery" in
  let _, candidates, exact = indexed_plan v q in
  Alcotest.(check bool) "exact" true exact;
  Alcotest.(check bool) "pattern root is a candidate" true (Ident.Set.mem p candidates);
  Alcotest.(check (list string)) "pattern root dropped" [ "A" ] (selected_names v q);
  Alcotest.(check int) "count" 1 (Q.count v q)

(* A conjunction whose common needle is too common to probe: the lookup
   over the rare one alone is a superset, so the plan is inexact and the
   roots holding only the rare needle are re-tested away. *)
let test_dropped_needle () =
  let db = fresh_db () in
  let doc i text =
    let o = ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "D%03d" i) ()) in
    describe db ~parent:o text
  in
  for i = 0 to 99 do
    doc i "common filler text"
  done;
  for i = 100 to 102 do
    doc i "zebra stripes"
  done;
  doc 103 "a zebra in common";
  (* a rebuild leaves the overlay empty, so the estimates are the
     postings alone *)
  DB.set_text_index_enabled db false;
  DB.set_text_index_enabled db true;
  let v = View.current (DB.raw db) in
  let q = Q.matches "" [ "zebra"; "common" ] in
  let texts, _, exact = indexed_plan v q in
  Alcotest.(check (list (list string))) "only the rare needle probed"
    [ [ "zebra" ] ]
    (List.map (fun tp -> tp.Q.tp_needles) texts);
  Alcotest.(check bool) "inexact" false exact;
  Alcotest.(check (list string)) "rare-only roots re-tested away" [ "D103" ]
    (selected_names v q);
  Alcotest.(check int) "count" 1 (Q.count v q)

(* Two needles held by different carriers of one root: no carrier holds
   both, so the root is no hit. *)
let test_split_needles () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let b = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  describe db ~parent:a "alpha text";
  describe db ~parent:a ~role:"Keywords" "beta word";
  describe db ~parent:b "alpha and beta";
  let v = View.current (DB.raw db) in
  let q = Q.matches "" [ "alpha"; "beta" ] in
  let _, _, exact = indexed_plan v q in
  Alcotest.(check bool) "exact" true exact;
  Alcotest.(check (list string)) "one carrier holds both" [ "B" ] (selected_names v q);
  Alcotest.(check int) "count" 1 (Q.count v q)

let () =
  Alcotest.run "text_index"
    [
      ( "structure",
        [ tc "postings and verification" test_structure;
          tc "string_contains edges" test_string_contains;
          tc "explain" test_explain;
          tc "counters and stats" test_counters;
          tc "version views" test_version_views ] );
      ( "equivalence",
        [ prop_select; prop_consistent; prop_all_prefixes; prop_reopen;
          prop_disable ] );
      ( "folds",
        [ tc "churn across folds" test_fold_churn;
          tc "snapshot pinned before a fold" test_fold_snapshot;
          tc "rollback of a folding transaction" test_fold_rollback ] );
      ( "tiers",
        [ tc "churn across tier merges" test_tier_churn;
          tc "snapshot pinned before a tier merge" test_tier_snapshot;
          tc "rollback of a tier-merging transaction" test_tier_rollback ] );
      ( "encodings",
        [ tc "bitmap and 1-, 2-, 3-byte gaps" test_encodings_one_tier;
          tc "a fold and a tier merge change encodings" test_encodings_across_merges;
          tc "each posting in the smaller encoding" test_encodings_size ] );
      ( "exactness",
        [ tc "pattern root under an exact plan" test_exact_pattern;
          tc "too-common needle makes the plan inexact" test_dropped_needle;
          tc "needles split across carriers" test_split_needles ] );
    ]
