open Seed_util
open Seed_schema
open Seed_error

let log_src = Logs.Src.create "seed.database" ~doc:"SEED operational interface"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = Db_state.t

let create schema = Db_state.create schema
let schema (db : t) = Db_state.schema db
let raw db = db
let of_raw st = st

let view db = View.retrieval db
let view_current db = View.current db

let view_at db vid =
  if Versioning.mem (Db_state.versions db) vid then Ok (View.at db vid)
  else fail (Unknown_version (Version_id.to_string vid))

let register_procedure db name p = Db_state.register_procedure db name p

(* ------------------------------------------------------------------ *)
(* Snapshots and rollback                                               *)
(*                                                                      *)
(* Every mutation below builds a new working root; [Db_state.publish]   *)
(* at the end of a successful top-level operation makes it visible to   *)
(* snapshot readers in one atomic store. Rollback — whether of a single *)
(* failed operation or of a whole transaction — is a root swap: restore *)
(* the root captured before the work began and {e everything} it did    *)
(* (item states, indexes, extents, the dirty set, nested mutations by   *)
(* attached procedures) is undone at once, in O(1).                     *)
(* ------------------------------------------------------------------ *)

type saved = Db_state.root

let save db : saved = Db_state.root db
let restore db (r : saved) = Db_state.set_root db r

let snapshot db = Db_state.freeze db
let snapshot_view db = View.current (Db_state.freeze db)

(* Publish after a successful top-level mutation. Mutations nested
   inside an attached procedure must not publish the enclosing
   operation's intermediate state; [publish] itself already no-ops
   inside a transaction. *)
let publish_if_top db =
  if Db_state.proc_depth db = 0 then Db_state.publish db

(* ------------------------------------------------------------------ *)
(* Transactions                                                         *)
(*                                                                      *)
(* A transaction pins the working root as a savepoint and suppresses    *)
(* publication until commit: readers never observe a half-applied       *)
(* batch, and rollback is the same O(1) root swap as a single failed    *)
(* operation. Transactions do not nest, and version or schema           *)
(* operations ({!create_version}, {!begin_alternative},                 *)
(* {!delete_version}, {!update_schema}) are refused while one is        *)
(* active.                                                              *)
(* ------------------------------------------------------------------ *)

let with_transaction db f =
  if Db_state.txn_active db then
    fail (Invalid_operation "a transaction is already active")
  else begin
    Db_state.begin_txn db;
    match f () with
    | Ok v ->
      Db_state.commit_txn db;
      Ok v
    | Error e ->
      Db_state.rollback_txn db;
      Error e
    | exception exn ->
      Db_state.rollback_txn db;
      raise exn
  end

let forbid_in_transaction db what =
  if Db_state.txn_active db then
    fail (Invalid_operation (what ^ " is not allowed inside a transaction"))
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Attached procedures                                                  *)
(* ------------------------------------------------------------------ *)

let procedure_names db (it : Item.t) =
  let schema = Db_state.schema db in
  match it.Item.current with
  | Some (Item.Obj o) ->
    let chain =
      if it.Item.body = Item.Independent then
        o.Item.cls :: Schema.class_supers schema o.Item.cls
      else begin
        (* a sub-object update also counts as an update of its enclosing
           composite objects: run the procedures of every class-path
           prefix, and the generalization chain of the root *)
        let components = String.split_on_char '.' o.Item.cls in
        let prefixes =
          List.fold_left
            (fun acc c ->
              match acc with
              | [] -> [ c ]
              | last :: _ -> (last ^ "." ^ c) :: acc)
            [] components
        in
        match List.rev prefixes with
        | root :: _ -> prefixes @ Schema.class_supers schema root
        | [] -> prefixes
      end
    in
    List.concat_map
      (fun c ->
        match Schema.find_class schema c with
        | Some def -> def.Class_def.procedures
        | None -> [])
      chain
  | Some (Item.Rel r) ->
    let chain = r.Item.assoc :: Schema.assoc_supers schema r.Item.assoc in
    List.concat_map
      (fun a ->
        match Schema.find_assoc schema a with
        | Some def -> def.Assoc_def.procedures
        | None -> [])
      chain
  | None -> []

let run_procedures db (it : Item.t) event =
  let names = procedure_names db it in
  if names = [] then Ok ()
  else if Db_state.proc_depth db >= 16 then
    fail (Invalid_operation "attached procedure recursion too deep")
  else
    let* procs = map_result (Db_state.find_procedure db) names in
    Db_state.set_proc_depth db (Db_state.proc_depth db + 1);
    let result = iter_result (fun p -> p db event) procs in
    Db_state.set_proc_depth db (Db_state.proc_depth db - 1);
    result

(* After a mutation touching the item [id], re-validate the normal
   contexts that see it through pattern inheritance, then run attached
   procedures. Any failure restores [before] (the pre-operation root).
   On success the new root is published (top-level operations only).

   The item is re-fetched here: the handle the caller started from was
   superseded by the mutation.

   [recheck_contexts] is false for updates that cannot affect counting
   constraints (value changes, renames): their structural checks have
   already run, so pattern value updates stay O(1) regardless of the
   number of inheritors — the point of patterns. *)
let commit ?(recheck_contexts = true) db id event ~before =
  let v = View.current db in
  let it =
    match Db_state.find_item db id with
    | Some it -> it
    | None -> assert false (* deletion is logical; the item is present *)
  in
  let contexts =
    match it.Item.current with
    | Some s when recheck_contexts && Item.state_pattern s ->
      Consistency.normal_inheritor_contexts v it
    | Some _ | None -> []
  in
  let result =
    let* () = iter_result (Consistency.check_inheritor_context v) contexts in
    run_procedures db it event
  in
  match result with
  | Ok () ->
    publish_if_top db;
    Ok ()
  | Error e ->
    Log.debug (fun m ->
        m "update of %a rolled back: %a" Ident.pp id Seed_error.pp e);
    restore db before;
    Error e

(* ------------------------------------------------------------------ *)
(* Creation                                                             *)
(* ------------------------------------------------------------------ *)

let add_new_item db item =
  Db_state.add_item db item;
  Db_state.mark_dirty db item

let create_object db ~cls ~name ?(pattern = false) () =
  let v = View.current db in
  let* () = Consistency.check_new_object v ~cls ~name in
  let before = save db in
  let id = Db_state.fresh_id db in
  let state =
    Item.Obj
      {
        Item.name = Some name;
        cls;
        value = None;
        pattern;
        inherits = [];
        deleted = false;
      }
  in
  let item = Item.make id Item.Independent state in
  add_new_item db item;
  let* () = commit db id (Event.Created id) ~before in
  Ok id

let used_indices v parent ~role =
  View.children_v v (View.vitem_real parent)
  |> List.filter_map (fun (vi : View.vitem) ->
         match vi.View.item.Item.body with
         | Item.Dependent d when String.equal d.role role -> d.index
         | Item.Dependent _ | Item.Independent | Item.Relationship -> None)

let smallest_free used =
  let sorted = List.sort_uniq Int.compare used in
  let rec go i = function
    | [] -> i
    | x :: rest -> if x = i then go (i + 1) rest else i
  in
  go 0 sorted

let create_sub_object db ~parent ~role ?index ?value () =
  let v = View.current db in
  let* parent_item = Db_state.find_item_res db parent in
  let* def =
    Consistency.check_new_sub_object v ~parent:parent_item ~role ~index ~value
  in
  let single =
    match def.Class_def.card.Cardinality.max with Some 1 -> true | _ -> false
  in
  let index =
    match (index, single) with
    | Some i, _ -> Some i
    | None, true -> None
    | None, false -> Some (smallest_free (used_indices v parent_item ~role))
  in
  let pattern =
    match View.obj_state v parent_item with
    | Some o -> o.Item.pattern
    | None -> false
  in
  let before = save db in
  let id = Db_state.fresh_id db in
  let state =
    Item.Obj
      {
        Item.name = None;
        cls = Class_def.name def;
        value;
        pattern;
        inherits = [];
        deleted = false;
      }
  in
  let item = Item.make id (Item.Dependent { parent; role; index }) state in
  add_new_item db item;
  let* () = commit db id (Event.Created id) ~before in
  Ok id

let create_relationship db ~assoc ~endpoints ?(pattern = false) () =
  let v = View.current db in
  let* endpoint_items = map_result (Db_state.find_item_res db) endpoints in
  let* _def =
    Consistency.check_new_relationship v ~assoc ~endpoints:endpoint_items
      ~pattern
  in
  let before = save db in
  let id = Db_state.fresh_id db in
  let state =
    Item.Rel
      {
        Item.assoc;
        endpoints;
        rel_attrs = [];
        rel_pattern = pattern;
        rel_deleted = false;
      }
  in
  let item = Item.make id Item.Relationship state in
  add_new_item db item;
  let* () = commit db id (Event.Created id) ~before in
  Ok id

let create_relationship_named db ~assoc ~bindings ?(pattern = false) () =
  let* def = Schema.find_assoc_res (Db_state.schema db) assoc in
  let* endpoints =
    map_result
      (fun (role : Assoc_def.role) ->
        match
          List.find_opt
            (fun (n, _) -> String.equal n role.Assoc_def.role_name)
            bindings
        with
        | Some (_, id) -> Ok id
        | None ->
          fail
            (Invalid_operation
               (Printf.sprintf "missing binding for role %s of %s"
                  role.Assoc_def.role_name assoc)))
      def.Assoc_def.roles
  in
  let* () =
    if List.length bindings = Assoc_def.arity def then Ok ()
    else
      fail
        (Invalid_operation
           (Printf.sprintf "association %s takes %d bindings, got %d" assoc
              (Assoc_def.arity def) (List.length bindings)))
  in
  create_relationship db ~assoc ~endpoints ~pattern ()

(* ------------------------------------------------------------------ *)
(* Updates                                                              *)
(* ------------------------------------------------------------------ *)

let update_item_state db (item : Item.t) new_state =
  Db_state.replace_state db item.Item.id (Some new_state);
  Db_state.mark_dirty db item

let set_value db id value =
  let v = View.current db in
  let* item = Db_state.find_item_res db id in
  let* () = Consistency.check_set_value v item value in
  match View.obj_state v item with
  | None -> fail (Unknown_item (Ident.to_string id))
  | Some o ->
    let before = save db in
    let old_value = o.Item.value in
    update_item_state db item (Item.Obj { o with Item.value });
    commit ~recheck_contexts:false db id
      (Event.Value_updated { id; old_value })
      ~before

let set_rel_attr db id name value =
  let v = View.current db in
  let* item = Db_state.find_item_res db id in
  let* () = Consistency.check_set_rel_attr v item name value in
  match View.rel_state v item with
  | None -> fail (Unknown_item (Ident.to_string id))
  | Some r ->
    let before = save db in
    let attrs = List.remove_assoc name r.Item.rel_attrs in
    let attrs =
      match value with None -> attrs | Some value -> (name, value) :: attrs
    in
    update_item_state db item (Item.Rel { r with Item.rel_attrs = attrs });
    commit ~recheck_contexts:false db id
      (Event.Value_updated
         { id; old_value = List.assoc_opt name r.Item.rel_attrs })
      ~before

let rel_attr db id name =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.rel_state v it with
    | Some r -> List.assoc_opt name r.Item.rel_attrs
    | None -> None)
  | None -> None

let rename_object db id new_name =
  let v = View.current db in
  let* item = Db_state.find_item_res db id in
  let* () = Consistency.check_rename v item new_name in
  match View.obj_state v item with
  | None -> fail (Unknown_item (Ident.to_string id))
  | Some o ->
    let before = save db in
    let old_name = Option.value o.Item.name ~default:"" in
    update_item_state db item (Item.Obj { o with Item.name = Some new_name });
    commit ~recheck_contexts:false db id (Event.Renamed { id; old_name }) ~before

let reclassify db id ~to_ =
  let v = View.current db in
  let* item = Db_state.find_item_res db id in
  match View.state v item with
  | None -> fail (Unknown_item (Ident.to_string id))
  | Some (Item.Obj o) ->
    let* () = Consistency.check_reclassify_object v item ~to_ in
    let before = save db in
    let from_ = o.Item.cls in
    update_item_state db item (Item.Obj { o with Item.cls = to_ });
    commit db id (Event.Reclassified { id; from_ }) ~before
  | Some (Item.Rel r) ->
    let* () = Consistency.check_reclassify_rel v item ~to_ in
    let before = save db in
    let from_ = r.Item.assoc in
    update_item_state db item (Item.Rel { r with Item.assoc = to_ });
    commit db id (Event.Reclassified { id; from_ }) ~before

(* the sub-object tree below an object, live items only *)
let rec subtree v acc (item : Item.t) =
  let acc = item :: acc in
  List.fold_left (subtree v) acc (View.children v item.Item.id)

let delete db id =
  let v = View.current db in
  let* item = Db_state.find_item_res db id in
  let* () = Consistency.check_delete v item in
  let cascade =
    match item.Item.body with
    | Item.Relationship -> [ item ]
    | Item.Independent ->
      let tree = subtree v [] item in
      let incident = View.rels v item.Item.id |> List.filter (View.live v) in
      tree @ incident
    | Item.Dependent _ -> subtree v [] item
  in
  let before = save db in
  let mark_deleted (it : Item.t) =
    match it.Item.current with
    | Some (Item.Obj o) ->
      update_item_state db it (Item.Obj { o with Item.deleted = true })
    | Some (Item.Rel r) ->
      update_item_state db it (Item.Rel { r with Item.rel_deleted = true })
    | None -> ()
  in
  List.iter mark_deleted cascade;
  commit db id (Event.Deleted id) ~before

(* ------------------------------------------------------------------ *)
(* Patterns                                                             *)
(* ------------------------------------------------------------------ *)

let inherit_pattern db ~pattern ~inheritor =
  let v = View.current db in
  let* pat = Db_state.find_item_res db pattern in
  let* inh = Db_state.find_item_res db inheritor in
  let* () = Consistency.check_inheritance v ~pattern:pat ~inheritor:inh in
  match View.obj_state v inh with
  | None -> fail (Unknown_item (Ident.to_string inheritor))
  | Some o ->
    let before = save db in
    update_item_state db inh
      (Item.Obj { o with Item.inherits = o.Item.inherits @ [ pattern ] });
    Db_state.index_inheritor db ~pattern ~inheritor;
    let result =
      (* the combined context must be consistent right away *)
      if View.live_normal v inh then Consistency.check_inheritor_context v inh
      else Ok ()
    in
    (match result with
    | Error e ->
      restore db before;
      Error e
    | Ok () -> commit db inheritor (Event.Inherited { pattern; inheritor }) ~before)

let uninherit_pattern db ~pattern ~inheritor =
  let v = View.current db in
  let* inh = Db_state.find_item_res db inheritor in
  match View.obj_state v inh with
  | None -> fail (Unknown_item (Ident.to_string inheritor))
  | Some o ->
    if not (List.exists (Ident.equal pattern) o.Item.inherits) then
      fail (Pattern_violation "pattern is not inherited by this object")
    else begin
      let inherits =
        List.filter (fun p -> not (Ident.equal p pattern)) o.Item.inherits
      in
      update_item_state db inh (Item.Obj { o with Item.inherits });
      Db_state.unindex_inheritor db ~pattern ~inheritor;
      publish_if_top db;
      Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Versions                                                             *)
(* ------------------------------------------------------------------ *)

let current_base (db : t) = Db_state.current_base db

let is_dirty db =
  List.exists
    (fun id ->
      match Db_state.find_item db id with
      | Some it -> it.Item.dirty
      | None -> false)
    (Db_state.dirty_ids db)

let create_version db =
  let* () = forbid_in_transaction db "create_version" in
  let before = save db in
  match
    let* () =
      iter_result
        (fun (_, rule) -> rule db ~base:(Db_state.current_base db))
        (Db_state.transition_rules db)
    in
    let* vid, vt =
      Versioning.derive (Db_state.versions db)
        ~base:(Db_state.current_base db)
        ~schema_rev:(Schema.revision (Db_state.schema db))
    in
    Db_state.set_versions db vt;
    let stamped = Db_state.stamp_dirty db vid in
    Db_state.set_current_base db (Some vid);
    Db_state.publish db;
    Log.info (fun m ->
        m "version %a created (%d items stamped)" Version_id.pp vid stamped);
    Ok vid
  with
  | Ok vid -> Ok vid
  | Error e ->
    restore db before;
    Error e

let select_version db vid_opt =
  match vid_opt with
  | None ->
    Db_state.set_retrieval_version db None;
    Db_state.publish db;
    Ok ()
  | Some vid ->
    if Versioning.mem (Db_state.versions db) vid then begin
      Db_state.set_retrieval_version db (Some vid);
      Db_state.publish db;
      Ok ()
    end
    else fail (Unknown_version (Version_id.to_string vid))

let selected_version (db : t) = Db_state.retrieval_version db

let begin_alternative db ~from_ ?(force = false) () =
  let* () = forbid_in_transaction db "begin_alternative" in
  let* _node = Versioning.find_res (Db_state.versions db) from_ in
  let* () =
    if is_dirty db && not force then
      fail
        (Unsaved_changes
           (match Db_state.current_base db with
           | Some v -> Version_id.to_string v
           | None -> "(unsaved initial state)"))
    else Ok ()
  in
  Db_state.clear_dirty db;
  (* the materialized view of [from_] holds every resolved state *)
  let v = View.at db from_ in
  Db_state.map_items db (fun it ->
      Item.with_dirty (Item.with_current it (View.state v it)) false);
  Db_state.load db (Db_state.iter_items db);
  Db_state.set_current_base db (Some from_);
  Db_state.publish db;
  Ok ()

let delete_version db vid =
  let* () = forbid_in_transaction db "delete_version" in
  let* () =
    match Db_state.current_base db with
    | Some b when Version_id.equal b vid ->
      fail
        (Invalid_operation
           "the current version derives from this version; switch first")
    | Some _ | None -> Ok ()
  in
  let* () =
    match Db_state.retrieval_version db with
    | Some r when Version_id.equal r vid ->
      fail (Invalid_operation "version is selected for retrieval; deselect first")
    | Some _ | None -> Ok ()
  in
  let* vt = Versioning.delete (Db_state.versions db) vid in
  Db_state.set_versions db vt;
  Db_state.drop_version_stamps db vid;
  Db_state.invalidate_version_cache db vid;
  Db_state.publish db;
  Ok ()

let versions db = Versioning.all (Db_state.versions db)

let set_text_index_enabled db on = Db_state.set_text_index_enabled db on
let text_index_enabled db = Db_state.text_index_enabled db
let version_cache_stats db = Db_state.version_cache_stats db

let add_transition_rule db name rule =
  Db_state.set_transition_rules db
    (Db_state.transition_rules db @ [ (name, rule) ])

(* ------------------------------------------------------------------ *)
(* Schema evolution                                                     *)
(* ------------------------------------------------------------------ *)

let update_schema db new_schema =
  let* () = forbid_in_transaction db "update_schema" in
  let* () = Schema.validate new_schema in
  let before = save db in
  let rev = Schema.revision (Db_state.schema db) + 1 in
  let stamped = Schema.with_revision new_schema rev in
  Db_state.set_schema db stamped;
  match Consistency.check_database (View.current db) with
  | Error e ->
    restore db before;
    Error e
  | Ok () ->
    Db_state.set_schemas db ((rev, stamped) :: Db_state.schemas db);
    Db_state.publish db;
    Ok ()

(* ------------------------------------------------------------------ *)
(* Retrieval                                                            *)
(* ------------------------------------------------------------------ *)

let find_object db name =
  let v = view db in
  match View.find_object v name with
  | Some it when View.live_normal v it -> Some it.Item.id
  | Some _ | None -> None

let find_pattern db name =
  let v = view db in
  match View.find_object v name with
  | Some it when View.live_pattern v it -> Some it.Item.id
  | Some _ | None -> None

let resolve db path =
  let v = view db in
  match View.resolve_name v path with
  | Some it -> Some it.Item.id
  | None -> None

let full_name db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> View.full_name v it
  | None -> None

let class_of db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.obj_state v it with
    | Some o -> Some o.Item.cls
    | None -> None)
  | None -> None

let assoc_of db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.rel_state v it with
    | Some r -> Some r.Item.assoc
    | None -> None)
  | None -> None

let get_value db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.obj_state v it with
    | Some o -> o.Item.value
    | None -> None)
  | None -> None

let is_pattern db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.state v it with
    | Some s -> Item.state_pattern s
    | None -> false)
  | None -> false

let exists db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> View.live v it
  | None -> false

let children db id =
  let v = view db in
  View.children v id |> List.map (fun (it : Item.t) -> it.Item.id)

let relationships db id =
  let v = view db in
  View.rels v id
  |> List.filter (fun it -> View.live_normal v it)
  |> List.map (fun (it : Item.t) -> it.Item.id)

let endpoints db id =
  let v = view db in
  match Db_state.find_item db id with
  | Some it -> (
    match View.rel_state v it with
    | Some r -> r.Item.endpoints
    | None -> [])
  | None -> []

let inheritors db id =
  let v = view db in
  View.inheritors_of v id |> List.map (fun (it : Item.t) -> it.Item.id)

let object_count db = Db_state.live_object_count (View.extents (view db))

type stats = {
  st_objects : int;
  st_sub_objects : int;
  st_relationships : int;
  st_patterns : int;
  st_versions : int;
  st_items_total : int;
  st_dirty : int;
  st_schema_revision : int;
  st_vc_hits : int;
  st_vc_misses : int;
  st_vc_evictions : int;
  st_text_enabled : bool;
  st_text_trigrams : int;
  st_text_postings : int;
  st_text_docs : int;
  st_text_bytes : int;
  st_text_hits : int;
  st_text_fallbacks : int;
  st_snapshots : int;
  st_commits : int;
  st_durable : bool;
  st_txns_submitted : int;
  st_txn_batches : int;
  st_txn_fsyncs : int;
  st_txn_max_batch : int;
  st_txn_queue_hwm : int;
}

let stats db =
  let ws = Db_state.write_stats db in
  let w f = match ws with Some s -> f s | None -> 0 in
  let vc = Db_state.version_cache_stats db in
  let tx = Db_state.text_stats db in
  let text_hits, text_fallbacks = Db_state.text_counters db in
  let x = View.extents (view db) in
  {
    st_objects = Db_state.live_object_count x;
    st_sub_objects = Db_state.live_dependent_count x;
    st_relationships = Db_state.live_rel_count x;
    st_patterns = Db_state.live_pattern_count x;
    st_versions = List.length (Versioning.all (Db_state.versions db));
    st_items_total = Db_state.item_count db;
    st_dirty =
      List.length
        (List.filter
           (fun id ->
             match Db_state.find_item db id with
             | Some it -> it.Item.dirty
             | None -> false)
           (Db_state.dirty_ids db));
    st_schema_revision = Schema.revision (Db_state.schema db);
    st_vc_hits = vc.Db_state.vc_hits;
    st_vc_misses = vc.Db_state.vc_misses;
    st_vc_evictions = vc.Db_state.vc_evictions;
    st_text_enabled = tx <> None;
    st_text_trigrams =
      (match tx with Some s -> s.Text_index.trigrams | None -> 0);
    st_text_postings =
      (match tx with Some s -> s.Text_index.postings | None -> 0);
    st_text_docs = (match tx with Some s -> s.Text_index.docs | None -> 0);
    st_text_bytes = (match tx with Some s -> s.Text_index.bytes | None -> 0);
    st_text_hits = text_hits;
    st_text_fallbacks = text_fallbacks;
    st_snapshots = Db_state.snapshot_grabs db;
    st_commits = Db_state.commits_published db;
    st_durable = ws <> None;
    st_txns_submitted = w (fun s -> s.Seed_storage.Commit_daemon.submitted);
    st_txn_batches = w (fun s -> s.Seed_storage.Commit_daemon.batches);
    st_txn_fsyncs = w (fun s -> s.Seed_storage.Commit_daemon.fsyncs);
    st_txn_max_batch = w (fun s -> s.Seed_storage.Commit_daemon.max_batch);
    st_txn_queue_hwm = w (fun s -> s.Seed_storage.Commit_daemon.queue_hwm);
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>objects: %d@,\
     sub-objects: %d@,\
     relationships: %d@,\
     patterns: %d@,\
     versions: %d@,\
     physical items: %d@,\
     unsaved changes: %d@,\
     schema revision: %d@,\
     version cache: %d hits / %d misses / %d evictions@,\
     text index: %s@,\
     text queries: %d indexed / %d scanned@,\
     snapshots grabbed: %d@,\
     roots published: %d@]"
    s.st_objects s.st_sub_objects s.st_relationships s.st_patterns
    s.st_versions s.st_items_total s.st_dirty s.st_schema_revision s.st_vc_hits
    s.st_vc_misses s.st_vc_evictions
    (if s.st_text_enabled then
       Printf.sprintf "%d docs / %d trigrams / %d postings (~%d KiB)"
         s.st_text_docs s.st_text_trigrams s.st_text_postings
         (s.st_text_bytes / 1024)
     else "disabled")
    s.st_text_hits s.st_text_fallbacks s.st_snapshots s.st_commits;
  if s.st_durable then
    Fmt.pf ppf
      "@,\
       @[<v>txns committed: %d in %d writes / %d fsyncs%s@,\
       largest coalesced batch: %d@,\
       commit queue high-water: %d@]"
      s.st_txns_submitted s.st_txn_batches s.st_txn_fsyncs
      (if s.st_txn_batches > 0 then
         Printf.sprintf " (%.2f txns/write)"
           (float_of_int s.st_txns_submitted /. float_of_int s.st_txn_batches)
       else "")
      s.st_txn_max_batch s.st_txn_queue_hwm

let completeness_report db = Completeness.check_database (view db)

let is_complete db = Completeness.is_complete (view db)
