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
(*                                                                      *)
(* Direct style: each reader returns its value and aborts the enclosing *)
(* [R.run] on malformed input, so a decoder is straight-line code.      *)
(* Fields are bound with [let] in stream order, never read inside a     *)
(* constructor's arguments, whose evaluation order is unspecified.      *)
(* ------------------------------------------------------------------ *)

(* a schema-level constructor refusing decoded values is corrupt input *)
let checked f = try f () with Invalid_argument msg -> R.fail msg

let get = function Ok v -> v | Error e -> R.fail (Seed_error.to_string e)

let r_ident r = Ident.of_int (R.varint r)

let r_value r =
  match R.u8 r with
  | 0 -> Value.String (R.string r)
  | 1 -> Value.Int (R.varint r)
  | 2 -> Value.Float (R.float r)
  | 3 -> Value.Bool (R.bool r)
  | 4 ->
    let year = R.varint r in
    let month = R.varint r in
    let day = R.varint r in
    Value.Date { Value.year; month; day }
  | 5 -> Value.Enum (R.string r)
  | _ -> R.fail "bad value tag"

let r_value_type r =
  match R.u8 r with
  | 0 -> Value_type.String
  | 1 -> Value_type.Int
  | 2 -> Value_type.Float
  | 3 -> Value_type.Bool
  | 4 -> Value_type.Date
  | 5 -> Value_type.Enum (R.list r R.string)
  | _ -> R.fail "bad value-type tag"

let r_card r =
  let min = R.varint r in
  let max = R.option r R.varint in
  checked (fun () -> Cardinality.make min max)

let r_class r =
  let path = R.list r R.string in
  let card = r_card r in
  let content = R.option r r_value_type in
  let super = R.option r R.string in
  let covering = R.bool r in
  let procedures = R.list r R.string in
  checked (fun () -> Class_def.v ~card ?content ?super ~covering ~procedures path)

let r_role r =
  let role_name = R.string r in
  let target = R.string r in
  let card = r_card r in
  Assoc_def.role ~card role_name target

let r_attr r =
  let attr_name = R.string r in
  let attr_type = r_value_type r in
  let required = R.bool r in
  Assoc_def.attr ~required attr_name attr_type

let r_assoc r =
  let name = R.string r in
  let roles = R.list r r_role in
  let attrs = R.list r r_attr in
  let acyclic = R.bool r in
  let super = R.option r R.string in
  let covering = R.bool r in
  let procedures = R.list r R.string in
  checked (fun () -> Assoc_def.v ~attrs ~acyclic ?super ~covering ~procedures name roles)

let r_schema r =
  let rev = R.varint r in
  let classes = R.list r r_class in
  let assocs = R.list r r_assoc in
  (* parents before children for of_defs *)
  let classes =
    List.sort
      (fun (a : Class_def.t) b ->
        Int.compare (List.length a.Class_def.path) (List.length b.Class_def.path))
      classes
  in
  Schema.with_revision (get (Schema.of_defs classes assocs)) rev

let r_version_id r = get (Version_id.of_ints (R.list r R.varint))

let r_state r =
  match R.u8 r with
  | 0 ->
    let name = R.option r R.string in
    let cls = R.name r in
    let value = R.option r r_value in
    let pattern = R.bool r in
    let inherits = R.list r r_ident in
    let deleted = R.bool r in
    Item.Obj { Item.name; cls; value; pattern; inherits; deleted }
  | 1 ->
    let assoc = R.name r in
    let endpoints = R.list r r_ident in
    let rel_attrs =
      R.list r (fun r ->
          let n = R.name r in
          (n, r_value r))
    in
    let rel_pattern = R.bool r in
    let rel_deleted = R.bool r in
    Item.Rel { Item.assoc; endpoints; rel_attrs; rel_pattern; rel_deleted }
  | _ -> R.fail "bad state tag"

(* ids are allocated in creation order, so a sub-object's parent always
   has the smaller id: checking it keeps parent chains acyclic *)
let r_body r ~id =
  match R.u8 r with
  | 0 -> Item.Independent
  | 1 ->
    let parent = r_ident r in
    let role = R.name r in
    let index = R.option r R.varint in
    if Ident.compare parent id >= 0 then R.fail "sub-object precedes its parent";
    Item.Dependent { parent; role; index }
  | 2 -> Item.Relationship
  | _ -> R.fail "bad body tag"

let r_item r =
  let id = r_ident r in
  let body = r_body r ~id in
  let current = R.option r r_state in
  let dirty = R.bool r in
  let history =
    R.list r (fun r ->
        let vid = r_version_id r in
        (vid, r_state r))
  in
  { Item.id; body; current; dirty; history = Item.history_of_bindings history }

let r_raw_node r =
  let r_vid = r_version_id r in
  let r_parent = R.option r r_version_id in
  let r_seq = R.varint r in
  let r_schema_rev = R.varint r in
  let r_next_branch = R.varint r in
  { Versioning.r_vid; r_parent; r_seq; r_schema_rev; r_next_branch }

type meta = {
  m_gen : int;
  m_trunk : int;
  m_nodes : Versioning.raw list;
  m_base : Version_id.t option;
  m_schemas : (int * Schema.t) list;  (** newest first, never empty *)
}

let r_meta r =
  let m_gen = R.varint r in
  let m_trunk = R.varint r in
  let m_nodes = R.list r r_raw_node in
  let m_base = R.option r r_version_id in
  let m_schemas =
    R.list r (fun r ->
        let rev = R.varint r in
        (rev, r_schema r))
  in
  if List.is_empty m_schemas then R.fail "database without schema";
  { m_gen; m_trunk; m_nodes; m_base; m_schemas }

(* ------------------------------------------------------------------ *)
(* Whole-database snapshot                                              *)
(* ------------------------------------------------------------------ *)

let encode_db db =
  let st = Database.raw db in
  let w = W.create ~initial_size:4096 () in
  W.varint w format_version;
  w_meta w st;
  (* the item table folds in id order already *)
  W.iter w w_item (Db_state.item_count st) (Db_state.iter_items st);
  W.contents w

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

(* The journal tail, decoded first: the last meta record and the last
   record of each item — a map as small as the tail. *)
let read_records records =
  List.fold_left
    (fun acc payload ->
      let* meta, items = acc in
      R.run payload (fun r ->
          match R.u8 r with
          | 0 -> (Some (r_meta r), items)
          | 1 ->
            let it = r_item r in
            (meta, Ident.Map.add it.Item.id it items)
          | _ -> R.fail "bad journal record tag"))
    (Ok (None, Ident.Map.empty))
    records

(* ------------------------------------------------------------------ *)
(* Open: one fold from the snapshot into the root                       *)
(* ------------------------------------------------------------------ *)

let state_of_meta meta =
  let schema = snd (List.hd meta.m_schemas) in
  let st = Db_state.create schema in
  Db_state.set_schemas st meta.m_schemas;
  Ident.Gen.mark_used (Db_state.gen st) (Ident.of_int meta.m_gen);
  Db_state.set_versions st (Versioning.restore ~trunk:meta.m_trunk ~nodes:meta.m_nodes);
  Db_state.set_current_base st meta.m_base;
  st

(* Fill [st] from the items [snapshot] streams in id order, with the
   journal's items merged in: a journal record replaces the snapshot's
   item of its id, and the others join in id order. *)
let load_items st journal snapshot =
  Db_state.load st (fun add ->
      let pending = ref (Ident.Map.bindings journal) in
      (* add the journal's items up to [id]; true when one replaces it *)
      let rec take_upto id =
        match !pending with
        | (jid, jit) :: rest when Ident.compare jid id <= 0 ->
          add jit;
          pending := rest;
          Ident.equal jid id || take_upto id
        | _ :: _ | [] -> false
      in
      snapshot (fun (it : Item.t) -> if not (take_upto it.Item.id) then add it);
      List.iter (fun (_, jit) -> add jit) !pending)

(* The snapshot payload decoded straight into a fresh root, with the
   journal tail [(jmeta, jitems)] merged in. *)
let decode_snapshot payload (jmeta, jitems) =
  R.run payload (fun r ->
      let v = R.varint r in
      if v <> format_version then R.fail (Printf.sprintf "unsupported format version %d" v);
      let meta = r_meta r in
      let st = state_of_meta (Option.value jmeta ~default:meta) in
      let last = ref min_int in
      load_items st jitems (fun add ->
          R.iter r (fun r ->
              let it = r_item r in
              let id = Ident.to_int it.Item.id in
              if id <= !last then R.fail "snapshot items out of id order";
              last := id;
              add it));
      st)

(* The stored database, [None] when the directory holds none. *)
let load_parts snapshot records =
  let* ((jmeta, jitems) as journal) = read_records records in
  match (snapshot, jmeta) with
  | Some payload, _ -> Result.map Option.some (decode_snapshot payload journal)
  | None, Some meta ->
    let st = state_of_meta meta in
    load_items st jitems ignore;
    Ok (Some st)
  | None, None -> Ok None

(* The loaded state is the first committed state; [verify] sweeps it. *)
let finish st ~verify =
  Db_state.publish st;
  let* () = if verify then Consistency.check_database (View.current st) else Ok () in
  Ok (Database.of_raw st)

let decode_db payload =
  let* st = decode_snapshot payload (None, Ident.Map.empty) in
  finish st ~verify:true

let save db ~dir =
  let* store, _, _, _ = Store.open_dir dir in
  let result = Store.compact store ~snapshot:(encode_db db) in
  Store.close store;
  result

let load ?(verify = true) ~dir () =
  let* store, snapshot, records, _ = Store.open_dir dir in
  Store.close store;
  let* st = load_parts snapshot records in
  match st with
  | None -> fail (Io_error ("no database found in " ^ dir))
  | Some st -> finish st ~verify

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

  (* the database the directory holds, or a fresh one given [schema]; a
     fresh directory gets an initial meta record so load finds something
     even before the first flush *)
  let database store ~dir ~schema ~verify snapshot records =
    let* st = load_parts snapshot records in
    match (st, schema) with
    | Some st, _ -> finish st ~verify
    | None, Some schema ->
      let database = Database.create schema in
      let* () = Store.append store [ record_meta (Database.raw database) ] in
      Ok database
    | None, None -> fail (Io_error ("no database in " ^ dir ^ " and no schema given"))

  let open_ ~dir ?schema ?(verify = true) ?io ?sync ?retry ?sleep () =
    let* store, snapshot, records, recovery =
      Store.open_dir ?io ?sync ?retry ?sleep dir
    in
    match database store ~dir ~schema ~verify snapshot records with
    | Error _ as e ->
      (* every refusal closes the journal [open_dir] opened *)
      Store.close store;
      e
    | Ok database ->
      let st = Database.raw database in
      Db_state.set_write_stats_source st (fun () -> Store.write_stats store);
      Ok { database; store; recovery; meta_fingerprint = fingerprint st }

  let db t = t.database
  let recovery t = t.recovery

  let flush t =
    let st = Database.raw t.database in
    (* the unflushed set lives in the root, so a rollback would restore
       it without the ids this flush wrote: flush only between updates,
       never inside a transaction, an attached procedure or a rule *)
    if Db_state.depth st > 0 then
      fail (Invalid_operation "flush inside a transaction or an update")
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
