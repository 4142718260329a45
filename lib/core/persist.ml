open Seed_util
open Seed_schema
open Seed_error
module Codec = Seed_storage.Codec
module W = Codec.Writer
module R = Codec.Reader
module Store = Seed_storage.Store

let format_version = 1

(* ------------------------------------------------------------------ *)
(* Encoders                                                             *)
(* ------------------------------------------------------------------ *)

let w_ident w id = W.varint w (Ident.to_int id)

let w_value w (v : Value.t) =
  match v with
  | Value.String s ->
    W.u8 w 0;
    W.string w s
  | Value.Int i ->
    W.u8 w 1;
    W.varint w i
  | Value.Float f ->
    W.u8 w 2;
    W.float w f
  | Value.Bool b ->
    W.u8 w 3;
    W.bool w b
  | Value.Date d ->
    W.u8 w 4;
    W.varint w d.Value.year;
    W.varint w d.Value.month;
    W.varint w d.Value.day
  | Value.Enum c ->
    W.u8 w 5;
    W.string w c

let w_value_type w (t : Value_type.t) =
  match t with
  | Value_type.String -> W.u8 w 0
  | Value_type.Int -> W.u8 w 1
  | Value_type.Float -> W.u8 w 2
  | Value_type.Bool -> W.u8 w 3
  | Value_type.Date -> W.u8 w 4
  | Value_type.Enum cs ->
    W.u8 w 5;
    W.list w W.string cs

let w_card w (c : Cardinality.t) =
  W.varint w c.Cardinality.min;
  W.option w W.varint c.Cardinality.max

let w_class w (c : Class_def.t) =
  W.list w W.string c.Class_def.path;
  w_card w c.Class_def.card;
  W.option w w_value_type c.Class_def.content;
  W.option w W.string c.Class_def.super;
  W.bool w c.Class_def.covering;
  W.list w W.string c.Class_def.procedures

let w_role w (r : Assoc_def.role) =
  W.string w r.Assoc_def.role_name;
  W.string w r.Assoc_def.target;
  w_card w r.Assoc_def.card

let w_attr w (x : Assoc_def.attr) =
  W.string w x.Assoc_def.attr_name;
  w_value_type w x.Assoc_def.attr_type;
  W.bool w x.Assoc_def.required

let w_assoc w (a : Assoc_def.t) =
  W.string w a.Assoc_def.name;
  W.list w w_role a.Assoc_def.roles;
  W.list w w_attr a.Assoc_def.attrs;
  W.bool w a.Assoc_def.acyclic;
  W.option w W.string a.Assoc_def.super;
  W.bool w a.Assoc_def.covering;
  W.list w W.string a.Assoc_def.procedures

let w_schema w s =
  W.varint w (Schema.revision s);
  W.list w w_class (Schema.classes s);
  W.list w w_assoc (Schema.assocs s)

let w_version_id w (v : Version_id.t) = W.list w W.varint (v :> int list)

let w_state w (s : Item.state) =
  match s with
  | Item.Obj o ->
    W.u8 w 0;
    W.option w W.string o.Item.name;
    W.string w o.Item.cls;
    W.option w w_value o.Item.value;
    W.bool w o.Item.pattern;
    W.list w w_ident o.Item.inherits;
    W.bool w o.Item.deleted
  | Item.Rel r ->
    W.u8 w 1;
    W.string w r.Item.assoc;
    W.list w w_ident r.Item.endpoints;
    W.list w
      (fun w (n, v) ->
        W.string w n;
        w_value w v)
      r.Item.rel_attrs;
    W.bool w r.Item.rel_pattern;
    W.bool w r.Item.rel_deleted

let w_body w (b : Item.body) =
  match b with
  | Item.Independent -> W.u8 w 0
  | Item.Dependent { parent; role; index } ->
    W.u8 w 1;
    w_ident w parent;
    W.string w role;
    W.option w W.varint index
  | Item.Relationship -> W.u8 w 2

let w_item w (it : Item.t) =
  w_ident w it.Item.id;
  w_body w it.Item.body;
  W.option w w_state it.Item.current;
  W.bool w it.Item.dirty;
  W.list w
    (fun w (vid, s) -> w_version_id w vid; w_state w s)
    (Item.history_bindings it)

let w_raw_node w (r : Versioning.raw) =
  w_version_id w r.Versioning.r_vid;
  W.option w w_version_id r.Versioning.r_parent;
  W.varint w r.Versioning.r_seq;
  W.varint w r.Versioning.r_schema_rev;
  W.varint w r.Versioning.r_next_branch

let w_meta w (st : Db_state.t) =
  W.varint w (Ident.Gen.current (Db_state.gen st));
  let trunk, nodes = Versioning.dump (Db_state.versions st) in
  W.varint w trunk;
  W.list w w_raw_node nodes;
  W.option w w_version_id (Db_state.current_base st);
  W.list w
    (fun w (rev, s) ->
      W.varint w rev;
      w_schema w s)
    (Db_state.schemas st)

(* ------------------------------------------------------------------ *)
(* Decoders                                                             *)
(* ------------------------------------------------------------------ *)

let r_ident r =
  let* i = R.varint r in
  Ok (Ident.of_int i)

let r_value r =
  let* tag = R.u8 r in
  match tag with
  | 0 ->
    let* s = R.string r in
    Ok (Value.String s)
  | 1 ->
    let* i = R.varint r in
    Ok (Value.Int i)
  | 2 ->
    let* f = R.float r in
    Ok (Value.Float f)
  | 3 ->
    let* b = R.bool r in
    Ok (Value.Bool b)
  | 4 ->
    let* year = R.varint r in
    let* month = R.varint r in
    let* day = R.varint r in
    Ok (Value.Date { Value.year; month; day })
  | 5 ->
    let* c = R.string r in
    Ok (Value.Enum c)
  | _ -> fail (Corrupt "bad value tag")

let r_value_type r =
  let* tag = R.u8 r in
  match tag with
  | 0 -> Ok Value_type.String
  | 1 -> Ok Value_type.Int
  | 2 -> Ok Value_type.Float
  | 3 -> Ok Value_type.Bool
  | 4 -> Ok Value_type.Date
  | 5 ->
    let* cs = R.list r R.string in
    Ok (Value_type.Enum cs)
  | _ -> fail (Corrupt "bad value-type tag")

let r_card r =
  let* min = R.varint r in
  let* max = R.option r R.varint in
  Ok (Cardinality.make min max)

let r_class r =
  let* path = R.list r R.string in
  let* card = r_card r in
  let* content = R.option r r_value_type in
  let* super = R.option r R.string in
  let* covering = R.bool r in
  let* procedures = R.list r R.string in
  Ok (Class_def.v ~card ?content ?super ~covering ~procedures path)

let r_role r =
  let* role_name = R.string r in
  let* target = R.string r in
  let* card = r_card r in
  Ok (Assoc_def.role ~card role_name target)

let r_attr r =
  let* attr_name = R.string r in
  let* attr_type = r_value_type r in
  let* required = R.bool r in
  Ok (Assoc_def.attr ~required attr_name attr_type)

let r_assoc r =
  let* name = R.string r in
  let* roles = R.list r r_role in
  let* attrs = R.list r r_attr in
  let* acyclic = R.bool r in
  let* super = R.option r R.string in
  let* covering = R.bool r in
  let* procedures = R.list r R.string in
  Ok (Assoc_def.v ~attrs ~acyclic ?super ~covering ~procedures name roles)

let r_schema r =
  let* rev = R.varint r in
  let* classes = R.list r r_class in
  let* assocs = R.list r r_assoc in
  (* parents before children for of_defs *)
  let classes =
    List.sort
      (fun (a : Class_def.t) b ->
        Int.compare (List.length a.Class_def.path) (List.length b.Class_def.path))
      classes
  in
  let* s = Schema.of_defs classes assocs in
  Ok (Schema.with_revision s rev)

let r_version_id r =
  let* ints = R.list r R.varint in
  Version_id.of_ints ints

let r_state r =
  let* tag = R.u8 r in
  match tag with
  | 0 ->
    let* name = R.option r R.string in
    let* cls = R.string r in
    let* value = R.option r r_value in
    let* pattern = R.bool r in
    let* inherits = R.list r r_ident in
    let* deleted = R.bool r in
    Ok (Item.Obj { Item.name; cls; value; pattern; inherits; deleted })
  | 1 ->
    let* assoc = R.string r in
    let* endpoints = R.list r r_ident in
    let* rel_attrs =
      R.list r (fun r ->
          let* n = R.string r in
          let* v = r_value r in
          Ok (n, v))
    in
    let* rel_pattern = R.bool r in
    let* rel_deleted = R.bool r in
    Ok (Item.Rel { Item.assoc; endpoints; rel_attrs; rel_pattern; rel_deleted })
  | _ -> fail (Corrupt "bad state tag")

let r_body r =
  let* tag = R.u8 r in
  match tag with
  | 0 -> Ok Item.Independent
  | 1 ->
    let* parent = r_ident r in
    let* role = R.string r in
    let* index = R.option r R.varint in
    Ok (Item.Dependent { parent; role; index })
  | 2 -> Ok Item.Relationship
  | _ -> fail (Corrupt "bad body tag")

let r_item r =
  let* id = r_ident r in
  let* body = r_body r in
  let* current = R.option r r_state in
  let* dirty = R.bool r in
  let* history =
    R.list r (fun r ->
        let* vid = r_version_id r in
        let* s = r_state r in
        Ok (vid, s))
  in
  Ok { Item.id; body; current; dirty; history = Item.history_of_bindings history }

let r_raw_node r =
  let* r_vid = r_version_id r in
  let* r_parent = R.option r r_version_id in
  let* r_seq = R.varint r in
  let* r_schema_rev = R.varint r in
  let* r_next_branch = R.varint r in
  Ok { Versioning.r_vid; r_parent; r_seq; r_schema_rev; r_next_branch }

type meta = {
  m_gen : int;
  m_trunk : int;
  m_nodes : Versioning.raw list;
  m_base : Version_id.t option;
  m_schemas : (int * Schema.t) list;
}

let r_meta r =
  let* m_gen = R.varint r in
  let* m_trunk = R.varint r in
  let* m_nodes = R.list r r_raw_node in
  let* m_base = R.option r r_version_id in
  let* m_schemas =
    R.list r (fun r ->
        let* rev = R.varint r in
        let* s = r_schema r in
        Ok (rev, s))
  in
  Ok { m_gen; m_trunk; m_nodes; m_base; m_schemas }

(* ------------------------------------------------------------------ *)
(* Whole-database snapshot                                              *)
(* ------------------------------------------------------------------ *)

let items_in_id_order (st : Db_state.t) =
  Db_state.fold_items st ~init:[] ~f:(fun acc it -> it :: acc)
  |> List.sort (fun (a : Item.t) b -> Ident.compare a.Item.id b.Item.id)

let encode_db db =
  let st = Database.raw db in
  let w = W.create ~initial_size:4096 () in
  W.varint w format_version;
  w_meta w st;
  W.list w w_item (items_in_id_order st);
  W.contents w

let build_db meta items ~verify =
  let* schema =
    match meta.m_schemas with
    | (_, s) :: _ -> Ok s
    | [] -> fail (Corrupt "database without schema")
  in
  let st = Db_state.create schema in
  Db_state.set_schemas st meta.m_schemas;
  Ident.Gen.mark_used (Db_state.gen st) (Ident.of_int meta.m_gen);
  Db_state.set_versions st
    (Versioning.restore ~trunk:meta.m_trunk ~nodes:meta.m_nodes);
  Db_state.set_current_base st meta.m_base;
  List.iter
    (fun (it : Item.t) ->
      Db_state.add_loaded_item st it;
      Ident.Gen.mark_used (Db_state.gen st) it.Item.id)
    items;
  Db_state.rebuild_state_indexes st;
  (* rebuild the delta set from the persisted dirty flags *)
  Db_state.rebuild_dirty st;
  (* the loaded state is the first committed state *)
  Db_state.publish st;
  let db = Database.of_raw st in
  let* () =
    if verify then Consistency.check_database (View.current st) else Ok ()
  in
  Ok db

let decode_snapshot payload =
  let r = R.of_string payload in
  let* v = R.varint r in
  let* () =
    if v = format_version then Ok ()
    else fail (Corrupt (Printf.sprintf "unsupported format version %d" v))
  in
  let* meta = r_meta r in
  let* items = R.list r r_item in
  let* () = R.expect_end r in
  Ok (meta, items)

let decode_db payload =
  let* meta, items = decode_snapshot payload in
  build_db meta items ~verify:true

(* ------------------------------------------------------------------ *)
(* Journal records                                                      *)
(* ------------------------------------------------------------------ *)

let record_meta st =
  let w = W.create () in
  W.u8 w 0;
  w_meta w st;
  W.contents w

let record_item (it : Item.t) =
  let w = W.create () in
  W.u8 w 1;
  w_item w it;
  W.contents w

let apply_records meta_ref items_map records =
  iter_result
    (fun payload ->
      let r = R.of_string payload in
      let* tag = R.u8 r in
      match tag with
      | 0 ->
        let* m = r_meta r in
        let* () = R.expect_end r in
        meta_ref := Some m;
        Ok ()
      | 1 ->
        let* it = r_item r in
        let* () = R.expect_end r in
        items_map := Ident.Map.add it.Item.id it !items_map;
        Ok ()
      | _ -> fail (Corrupt "bad journal record tag"))
    records

let load_parts snapshot records =
  let* base =
    match snapshot with
    | None -> Ok None
    | Some payload -> Result.map Option.some (decode_snapshot payload)
  in
  let meta_ref = ref (Option.map fst base) in
  let items_map =
    ref
      (match base with
      | Some (_, items) ->
        List.fold_left
          (fun m (it : Item.t) -> Ident.Map.add it.Item.id it m)
          Ident.Map.empty items
      | None -> Ident.Map.empty)
  in
  let* () = apply_records meta_ref items_map records in
  match !meta_ref with
  | None -> Ok None
  | Some meta ->
    Ok (Some (meta, List.map snd (Ident.Map.bindings !items_map)))

let save db ~dir =
  let* store, _, _, _ = Store.open_dir dir in
  let result = Store.compact store ~snapshot:(encode_db db) in
  Store.close store;
  result

let load ?(verify = true) ~dir () =
  let* store, snapshot, records, _ = Store.open_dir dir in
  Store.close store;
  let* parts = load_parts snapshot records in
  match parts with
  | None -> fail (Io_error ("no database found in " ^ dir))
  | Some (meta, items) -> build_db meta items ~verify

(* ------------------------------------------------------------------ *)
(* Sessions                                                             *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type t = {
    database : Database.t;
    store : Store.t;
    recovery : Store.recovery;
    mutable meta_fingerprint : string;
  }

  let fingerprint st =
    let w = W.create () in
    w_meta w st;
    W.contents w

  let open_ ~dir ?schema ?(verify = true) ?io ?sync ?retry ?sleep () =
    let* store, snapshot, records, recovery =
      Store.open_dir ?io ?sync ?retry ?sleep dir
    in
    let* parts = load_parts snapshot records in
    let* database =
      match (parts, schema) with
      | Some (meta, items), _ -> build_db meta items ~verify
      | None, Some schema -> Ok (Database.create schema)
      | None, None ->
        Store.close store;
        fail (Io_error ("no database in " ^ dir ^ " and no schema given"))
    in
    let t =
      {
        database;
        store;
        recovery;
        meta_fingerprint = fingerprint (Database.raw database);
      }
    in
    Db_state.set_write_stats_source (Database.raw database) (fun () ->
        Store.write_stats store);
    (* a fresh database directory gets an initial meta record so load
       finds something even before the first flush *)
    let* () =
      if parts = None then
        Store.append store [ record_meta (Database.raw database) ]
      else Ok ()
    in
    Ok t

  let db t = t.database
  let recovery t = t.recovery

  let flush t =
    let st = Database.raw t.database in
    (* the unflushed set lives in the root, so a rollback would restore
       it without the ids this flush wrote: flush only at transaction
       boundaries *)
    if Db_state.txn_active st then
      fail (Invalid_operation "flush inside an active transaction")
    else
      (* the root's unflushed set, in id order: O(items changed), never
         a scan of the item table *)
      let items =
        List.filter_map (Db_state.find_item st)
          (Ident.Set.elements (Db_state.unflushed st))
      in
      let fp = fingerprint st in
      let records =
        List.map record_item items
        @ (if String.equal fp t.meta_fingerprint then [] else [ record_meta st ])
      in
      (* one transaction, one journal frame: a crash mid-flush durably
         persists either the whole batch (items + meta) or none of it —
         recovery can never see a prefix of a checkin. The set is cleared
         only once the transaction is durable, so a failed flush leaves
         the same records pending for the retry. *)
      let* () = Store.append t.store records in
      Db_state.clear_unflushed st;
      t.meta_fingerprint <- fp;
      Ok ()

  let compact t =
    let* () = Store.compact t.store ~snapshot:(encode_db t.database) in
    Db_state.clear_unflushed (Database.raw t.database);
    t.meta_fingerprint <- fingerprint (Database.raw t.database);
    Ok ()

  let journal_records t = Store.journal_size t.store

  let close t = Store.close t.store
end
