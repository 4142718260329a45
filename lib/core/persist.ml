open Seed_util
open Seed_schema
open Seed_error
module Codec = Seed_storage.Codec
module W = Codec.Writer
module R = Codec.Reader
module Store = Seed_storage.Store
module Journal = Seed_storage.Journal
module Snapshot_file = Seed_storage.Snapshot_file

(* The snapshot's format. Version 1 spells every schema-element name
   out; version 2 numbers them (below); version 3 packs an item's
   bookkeeping into one flag word and writes its ids as gaps (the item
   record, below). The reader takes all three, the writer writes only
   3. *)
let format_version = 3

(* ------------------------------------------------------------------ *)
(* Schema-element names, by number                                      *)
(* ------------------------------------------------------------------ *)

(* The names an item under schema [s] can hold: class paths
   ([Item.cls]), sub-object roles ([Item.Dependent.role]), association
   and relationship-attribute names. *)
let element_names s =
  List.concat_map
    (fun c ->
      if Class_def.is_top_level c then [ Class_def.name c ]
      else [ Class_def.name c; Class_def.simple_name c ])
    (Schema.classes s)
  @ List.concat_map
      (fun (a : Assoc_def.t) ->
        a.Assoc_def.name
        :: List.map (fun (x : Assoc_def.attr) -> x.Assoc_def.attr_name) a.Assoc_def.attrs)
      (Schema.assocs s)

module Numbers = Hashtbl.Make (String)

(* The one place the table is built. Each name is numbered at its first
   appearance over the schema revisions, oldest first, each revision's
   new names in sorted order; the table is derived from the meta's
   schema list and never stored. [Database.update_schema] only ever
   prepends a revision, so the table of a later meta extends the table
   of every earlier one: no number ever moves, and an item record
   decodes with the table of the last meta before it. *)
let numbers_of schemas =
  let numbers = Numbers.create 64 in
  List.iter
    (fun (_, s) ->
      List.iter
        (fun n ->
          if not (Numbers.mem numbers n) then Numbers.add numbers n (Numbers.length numbers))
        (List.sort_uniq String.compare (element_names s)))
    (List.rev schemas);
  numbers

(* the reader's side: the name of each number *)
let numbered_names schemas =
  let numbers = numbers_of schemas in
  let names = Array.make (Numbers.length numbers) "" in
  Numbers.iter (fun n i -> names.(i) <- n) numbers;
  names

(* every name an item holds was checked against a schema revision on
   its way in, so a name without a number is a bug, not bad input *)
let w_name numbers w n =
  match Numbers.find numbers n with
  | i -> W.varint w i
  | exception Not_found -> invalid_arg ("Persist: no schema element is named " ^ n)

(* ------------------------------------------------------------------ *)
(* Encoders                                                             *)
(* ------------------------------------------------------------------ *)

let value_tag (v : Value.t) =
  match v with
  | Value.String _ -> 0
  | Value.Int _ -> 1
  | Value.Float _ -> 2
  | Value.Bool _ -> 3
  | Value.Date _ -> 4
  | Value.Enum _ -> 5

(* a value's bytes after its tag *)
let w_value_payload w (v : Value.t) =
  match v with
  | Value.String s | Value.Enum s -> W.string w s
  | Value.Int i -> W.varint w i
  | Value.Float f -> W.float w f
  | Value.Bool b -> W.bool w b
  | Value.Date d ->
    W.varint w d.Value.year;
    W.varint w d.Value.month;
    W.varint w d.Value.day

let w_value w v =
  W.u8 w (value_tag v);
  w_value_payload w v

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

(* ------------------------------------------------------------------ *)
(* The item record (format 3)                                           *)
(*                                                                      *)
(* An item is its id, one flag word, then only the fields the flags say *)
(* are there. Bits of the flag word (DESIGN.md §6, Record format):      *)
(* ------------------------------------------------------------------ *)

let f_body = 0x3 (* 0 an object, 1 a sub-object, 2 a relationship *)
let f_dirty = 0x4 (* in the delta set *)
let f_value = 0x38 (* the value's kind: 0 none, else its tag + 1 *)
let f_option = 0x40 (* an object's name, or a sub-object's index *)
let f_absent = 0x80 (* no current state *)
let f_pattern = 0x100
let f_deleted = 0x200
let f_inherits = 0x400 (* a non-empty inherits list *)
let f_attrs = 0x800 (* a non-empty relationship-attribute list *)
let f_history = 0x1000 (* a non-empty history *)
let f_sub_name = 0x2000 (* a sub-object's name *)

let body_kind (b : Item.body) =
  match b with Item.Independent -> 0 | Item.Dependent _ -> 1 | Item.Relationship -> 2

(* the bit a state of an item of body kind [body] marks its name with:
   a sub-object's option bit is its index *)
let name_bit body = if body = 1 then f_sub_name else f_option

(* The flag bits a state of body kind [body] may set; a relationship's
   state is a [Rel], every other item's an [Obj]. *)
let state_mask body =
  if body = 2 then f_pattern lor f_deleted lor f_attrs
  else f_value lor name_bit body lor f_pattern lor f_deleted lor f_inherits

let nonempty = function [] -> false | _ :: _ -> true

let state_bits body (s : Item.state) =
  let flag b bit = if b then bit else 0 in
  match s with
  | Item.Obj o when body <> 2 ->
    (match o.value with None -> 0 | Some v -> (value_tag v + 1) lsl 3)
    lor flag (Option.is_some o.name) (name_bit body)
    lor flag o.pattern f_pattern lor flag o.deleted f_deleted
    lor flag (nonempty o.inherits) f_inherits
  | Item.Rel r when body = 2 ->
    flag r.rel_pattern f_pattern lor flag r.rel_deleted f_deleted
    lor flag (nonempty r.rel_attrs) f_attrs
  | Item.Absent -> f_absent
  | Item.Obj _ | Item.Rel _ -> invalid_arg "Persist: a state of the wrong kind for its item"

(* ids as signed gaps from the item's own id [id] *)
let w_ids w id l = W.list w (fun w x -> W.varint w (Ident.to_int x - id)) l

(* the fields of a present state whose flag bits were written before *)
let w_fields numbers w ~id (s : Item.state) =
  match s with
  | Item.Obj o ->
    (match o.name with Some n -> W.string w n | None -> ());
    w_name numbers w o.cls;
    (match o.value with Some v -> w_value_payload w v | None -> ());
    if nonempty o.inherits then w_ids w id o.inherits
  | Item.Rel r ->
    w_name numbers w r.assoc;
    w_ids w id r.endpoints;
    if nonempty r.rel_attrs then
      W.list w
        (fun w (n, v) ->
          w_name numbers w n;
          w_value w v)
        r.rel_attrs
  | Item.Absent -> ()

(* An item, its id written as the gap above [prev]: the previous item's
   id in a snapshot, 0 in a journal record, whose id is so absolute.
   The dirty bit is the item's membership in the delta set [delta]. *)
let w_item numbers delta ~prev w (it : Item.t) =
  let id = Ident.to_int it.Item.id in
  let body = body_kind it.Item.body in
  let history = not (Item.history_is_empty it) in
  let flags =
    body
    lor (if Ident.Set.mem it.Item.id delta then f_dirty else 0)
    lor state_bits body it.Item.current
    lor (match it.Item.body with Item.Dependent { index = Some _; _ } -> f_option | _ -> 0)
    lor if history then f_history else 0
  in
  W.uvarint w (id - prev);
  W.uvarint w flags;
  (match it.Item.body with
  | Item.Dependent { parent; role; index } ->
    (* the parent has the smaller id *)
    W.uvarint w (id - Ident.to_int parent);
    w_name numbers w role;
    (match index with Some i -> W.varint w i | None -> ())
  | Item.Independent | Item.Relationship -> ());
  w_fields numbers w ~id it.Item.current;
  if history then begin
    W.count w (Version_id.Map.cardinal it.Item.history);
    Version_id.Map.iter
      (fun vid s ->
        let bits = state_bits body s in
        if bits land f_absent <> 0 then invalid_arg "Persist: a stamp of no state";
        w_version_id w vid;
        W.uvarint w bits;
        w_fields numbers w ~id s)
      it.Item.history
  end

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

let get = function
  | Ok v -> v
  | Error (Corrupt msg) -> R.fail msg
  | Error e -> R.fail (Seed_error.to_string e)

let r_ident r = Ident.of_int (R.varint r)

let r_value_payload r tag =
  match tag with
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

let r_value r = r_value_payload r (R.u8 r)

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

(* How a record reads a schema-element name: format 1 spells it out
   ([R.string]), formats 2 and 3 give its number in a table
   ([numbered]). *)
let numbered names r =
  let i = R.varint r in
  if i < 0 || i >= Array.length names then R.fail "unknown schema-element number";
  Array.unsafe_get names i

(* an id written as its signed gap from [id] (0: the id itself); an
   overflowed sum is negative too *)
let r_ref ~id r =
  let x = id + R.varint r in
  if x < 1 then R.fail "item reference below #1";
  Ident.of_int x

(* A state of an item of body [body]. A relationship's state is a [Rel],
   every other item's an [Obj], and every reference is to #1 or above:
   the rules format 3's reader applies, so that what an older store
   opens with, the format-3 writer writes and its reader reads back. *)
let r_state elt ~body r =
  match (R.u8 r, body) with
  | 0, (Item.Independent | Item.Dependent _) ->
    let name = R.option r R.string in
    let cls = elt r in
    let value = R.option r r_value in
    let pattern = R.bool r in
    let inherits = R.list r (r_ref ~id:0) in
    let deleted = R.bool r in
    Item.Obj { name; cls; value; pattern; inherits; deleted }
  | 1, Item.Relationship ->
    let assoc = elt r in
    let endpoints = R.list r (r_ref ~id:0) in
    let rel_attrs =
      R.list r (fun r ->
          let n = elt r in
          (n, r_value r))
    in
    let rel_pattern = R.bool r in
    let rel_deleted = R.bool r in
    Item.Rel { assoc; endpoints; rel_attrs; rel_pattern; rel_deleted }
  | (0 | 1), _ -> R.fail "a state of the wrong kind for its item"
  | _ -> R.fail "bad state tag"

(* ids are allocated in creation order, so a sub-object's parent always
   has the smaller id: checking it keeps parent chains acyclic *)
let r_body elt r ~id =
  match R.u8 r with
  | 0 -> Item.Independent
  | 1 ->
    let parent = r_ref ~id:0 r in
    let role = elt r in
    let index = R.option r R.varint in
    if Ident.compare parent id >= 0 then R.fail "sub-object precedes its parent";
    Item.Dependent { parent; role; index }
  | 2 -> Item.Relationship
  | _ -> R.fail "bad body tag"

(* an item and its dirty byte: whether it is in the delta set *)
let r_item elt r =
  let id = r_ident r in
  let body = r_body elt r ~id in
  let current =
    match R.u8 r with
    | 0 -> Item.Absent
    | 1 -> r_state elt ~body r
    | _ -> R.fail "codec: bad option tag"
  in
  let dirty = R.bool r in
  let history =
    R.list r (fun r ->
        let vid = r_version_id r in
        (vid, r_state elt ~body r))
  in
  ({ Item.id; body; current; history = Item.history_of_bindings history }, dirty)

(* Format 3's item record (the encoder's [w_item]). Every other gap and
   flag is checked before it is used: a parent gap of 0 or reaching
   below #1, a reference below #1, a flag outside what the item's kind
   may set, and a list flagged non-empty with no element are all
   [Corrupt]. The item's own id is checked by the caller, as an older
   record's is: above the one before it in a snapshot (a gap of 0 or
   one that overflows sums to no more than [prev]) and within the id
   counter. *)

(* a list its flag calls non-empty *)
let r_nonempty r f = match R.list r f with [] -> R.fail "an empty list flagged non-empty" | l -> l

let r_attr names r =
  let n = numbered names r in
  (n, r_value r)

(* the fields of a present state of flags [f] of an item [id] of body
   kind [body] *)
let r_fields names r ~id ~body f =
  let pattern = f land f_pattern <> 0 and deleted = f land f_deleted <> 0 in
  if body = 2 then
    let assoc = numbered names r in
    let endpoints = R.list r (r_ref ~id) in
    let rel_attrs = if f land f_attrs = 0 then [] else r_nonempty r (r_attr names) in
    Item.Rel { assoc; endpoints; rel_attrs; rel_pattern = pattern; rel_deleted = deleted }
  else
    let name = if f land name_bit body = 0 then None else Some (R.string r) in
    let cls = numbered names r in
    let value =
      match (f land f_value) lsr 3 with 0 -> None | k -> Some (r_value_payload r (k - 1))
    in
    let inherits = if f land f_inherits = 0 then [] else r_nonempty r (r_ref ~id) in
    Item.Obj { name; cls; value; pattern; inherits; deleted }

(* a stamp: its version and its state's flag word and fields *)
let r_stamp names r ~id ~body =
  let vid = r_version_id r in
  let f = R.uvarint r in
  if f land lnot (state_mask body) <> 0 then R.fail "bad state flag word";
  (vid, r_fields names r ~id ~body f)

(* an item and its dirty bit; its id is [prev] plus a gap *)
let r_item3 names r ~prev =
  let id = prev + R.uvarint r in
  let f = R.uvarint r in
  let body = f land f_body in
  if body = 3 then R.fail "bad body kind";
  let allowed =
    f_body lor f_dirty lor f_absent lor f_history
    lor (if body = 1 then f_option else 0)
    lor if f land f_absent = 0 then state_mask body else 0
  in
  if f land lnot allowed <> 0 then R.fail "bad item flag word";
  let item_body =
    match body with
    | 0 -> Item.Independent
    | 1 ->
      (* the parent has the smaller id, so parent chains stay acyclic *)
      let gap = R.uvarint r in
      if gap < 1 then R.fail "sub-object precedes its parent";
      if gap >= id then R.fail "sub-object's parent below #1";
      let role = numbered names r in
      let index = if f land f_option = 0 then None else Some (R.varint r) in
      Item.Dependent { parent = Ident.of_int (id - gap); role; index }
    | _ -> Item.Relationship
  in
  let current = if f land f_absent <> 0 then Item.Absent else r_fields names r ~id ~body f in
  let history =
    if f land f_history = 0 then Version_id.Map.empty
    else Item.history_of_bindings (r_nonempty r (r_stamp names ~id ~body))
  in
  ({ Item.id = Ident.of_int id; body = item_body; current; history }, f land f_dirty <> 0)

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

(* the items' names in the numbers of the meta written before them *)
let encode_state numbers st =
  let w = W.create () in
  W.varint w format_version;
  w_meta w st;
  (* the item table folds in id order already; each id is a gap from
     the one before *)
  let delta = Db_state.dirty st and prev = ref 0 in
  W.iter w
    (fun w it ->
      w_item numbers delta ~prev:!prev w it;
      prev := Ident.to_int it.Item.id)
    (Db_state.item_count st) (Db_state.iter_items st);
  W.contents w

let encode_db db =
  let st = Database.raw db in
  encode_state (numbers_of (Db_state.schemas st)) st

(* ------------------------------------------------------------------ *)
(* Journal records                                                      *)
(* ------------------------------------------------------------------ *)

(* Record tags: 0 the meta; 1 an item with its names spelled out
   (format 1) and 2 one with its names numbered (format 2), both read
   only; 3 an item record of format 3, its names numbered in the table
   of the last meta before it in stream order and its id absolute. *)
let record_meta w st =
  W.u8 w 0;
  w_meta w st

let record_item numbers delta w it =
  W.u8 w 3;
  w_item numbers delta ~prev:0 w it

(* a record's id is refused at [Item.none]'s *)
let last_id = max_int - 1

(* The journal tail, decoded first: the last meta record and the last
   record of each item — a map as small as the tail. [names] is the
   table of the meta the journal continues (the snapshot's), [None]
   without a snapshot; a table is built only if a record needs it. *)
let read_records names records =
  let names = ref names in
  List.fold_left
    (fun acc payload ->
      let* meta, items = acc in
      R.run payload (fun r ->
          let add ((it, _) as item) =
            (* a record's id is absolute, of any tag: checked here *)
            let id = Ident.to_int it.Item.id in
            if id < 1 || id > last_id then R.fail "journal item id out of range";
            (meta, Ident.Map.add it.Item.id item items)
          in
          match R.u8 r with
          | 0 ->
            let m = r_meta r in
            names := Some (lazy (numbered_names m.m_schemas));
            (Some m, items)
          | 1 -> add (r_item R.string r)
          | (2 | 3) as tag -> (
            match !names with
            | Some names ->
              let names = Lazy.force names in
              add
                (if tag = 2 then r_item (numbered names) r
                 else r_item3 names r ~prev:0)
            | None -> R.fail "item record before any meta")
          | _ -> R.fail "bad journal record tag"))
    (Ok (None, Ident.Map.empty))
    records

(* ------------------------------------------------------------------ *)
(* Open: one fold from the snapshot into the root                       *)
(* ------------------------------------------------------------------ *)

(* The version tree is restored only for the meta the root is made
   from, not for each superseded meta of the journal. *)
let state_of_meta meta =
  let* versions = Versioning.restore ~trunk:meta.m_trunk ~nodes:meta.m_nodes in
  let schema = snd (List.hd meta.m_schemas) in
  let st = Db_state.create schema in
  Db_state.set_schemas st meta.m_schemas;
  Ident.Gen.mark_used (Db_state.gen st) (Ident.of_int meta.m_gen);
  Db_state.set_versions st versions;
  Db_state.set_current_base st meta.m_base;
  Ok st

(* Fill [st] from the [count] items [snapshot] streams in id order, with
   the journal's items merged in: a journal record replaces the
   snapshot's item of its id, and the others join in id order. *)
let load_items st journal ~count snapshot =
  Db_state.load st ~capacity:(count + Ident.Map.cardinal journal) (fun add ->
      let pending = ref (Ident.Map.bindings journal) in
      (* add the journal's items up to [id]; true when one replaces it *)
      let rec take_upto id =
        match !pending with
        | (jid, (jit, jdirty)) :: rest when Ident.compare jid id <= 0 ->
          add jit jdirty;
          pending := rest;
          Ident.equal jid id || take_upto id
        | _ :: _ | [] -> false
      in
      snapshot (fun (it : Item.t) dirty -> if not (take_upto it.Item.id) then add it dirty);
      List.iter (fun (_, (jit, jdirty)) -> add jit jdirty) !pending)

(* The snapshot payload decoded straight into a fresh root, with the
   journal's [records] merged in. The snapshot's meta comes first: its
   table numbers the names of the journal's first records. *)
let decode_snapshot (p : Snapshot_file.payload) records =
  R.run_sub p.file ~pos:p.pos ~len:p.len (fun r ->
      let v = R.varint r in
      if v < 1 || v > format_version then
        R.fail (Printf.sprintf "unsupported format version %d" v);
      let meta = r_meta r in
      let names = lazy (numbered_names meta.m_schemas) in
      let jmeta, jitems = get (read_records (Some names) records) in
      let st = get (state_of_meta (Option.value jmeta ~default:meta)) in
      let table = if v = 1 then [||] else Lazy.force names in
      let elt = if v = 1 then R.string else numbered table in
      (* every id is above the last one and within the meta's counter:
         a snapshot is written with its generator past every item *)
      let last = ref 0 and count = R.count r in
      load_items st jitems ~count (fun add ->
          for _ = 1 to count do
            let it, dirty =
              if v = 3 then r_item3 table r ~prev:!last else r_item elt r
            in
            let id = Ident.to_int it.Item.id in
            if id <= !last then R.fail "snapshot item ids not ascending from #1";
            if id > meta.m_gen then R.fail "snapshot item id past the id counter";
            last := id;
            add it dirty
          done);
      st)

(* The stored database, [None] when the directory holds none. *)
let load_parts snapshot records =
  match snapshot with
  | Some payload -> Result.map Option.some (decode_snapshot payload records)
  | None -> (
    let* jmeta, jitems = read_records None records in
    match jmeta with
    | Some meta ->
      let* st = state_of_meta meta in
      load_items st jitems ~count:0 ignore;
      Ok (Some st)
    | None -> Ok None)

(* The loaded state is the first committed state; [verify] sweeps it. *)
let finish st ~verify =
  Db_state.publish st;
  let* () = if verify then Consistency.check_database (View.current st) else Ok () in
  Ok (Database.of_raw st)

let decode_db ?(records = []) payload =
  let* st =
    decode_snapshot { Snapshot_file.file = payload; pos = 0; len = String.length payload } records
  in
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
  (* The meta's three root fields as the last durable flush left them.
     Only [Db_state.set_schemas], [set_versions] and [set_current_base]
     replace them, so an unchanged meta is physically the same value,
     and a rollback swap brings the savepoint's own values back. The id
     counter is no meta change: on open it is the max of the meta's
     value and every loaded id, and every durable id is a loaded one. *)
  type fingerprint = {
    f_schemas : (int * Schema.t) list;
    f_versions : Versioning.t;
    f_base : Version_id.t option;
  }

  (* [numbers]: the writer's table of the schema list it is keyed by,
     physically; only a schema update replaces the list. [frame]: the
     one journal writer every flush encodes its records into. *)
  type t = {
    database : Database.t;
    store : Store.t;
    recovery : Store.recovery;
    frame : Journal.writer;
    mutable meta_fingerprint : fingerprint;
    mutable numbers : (int * Schema.t) list * int Numbers.t;
  }

  let fingerprint st =
    {
      f_schemas = Db_state.schemas st;
      f_versions = Db_state.versions st;
      f_base = Db_state.current_base st;
    }

  (* by identity: an equal value that was rebuilt only costs one more
     meta record *)
  let meta_unchanged fp st =
    fp.f_schemas == Db_state.schemas st
    && fp.f_versions == Db_state.versions st
    && fp.f_base == Db_state.current_base st

  (* the database the directory holds, or a fresh one given [schema]; a
     fresh directory gets an initial meta record so load finds something
     even before the first flush *)
  let database store frame ~dir ~schema snapshot records =
    let* st = load_parts snapshot records in
    match (st, schema) with
    | Some st, _ -> finish st ~verify:true
    | None, Some schema ->
      let database = Database.create schema in
      Journal.start frame ~records:1;
      Journal.add frame record_meta (Database.raw database);
      let* () = Store.append_frame store frame in
      Ok database
    | None, None -> fail (Io_error ("no database in " ^ dir ^ " and no schema given"))

  let open_ ~dir ?schema ?io ?sync () =
    let* store, snapshot, records, recovery = Store.open_dir ?io ?sync dir in
    let frame = Journal.writer () in
    match database store frame ~dir ~schema snapshot records with
    | Error _ as e ->
      (* every refusal closes the journal [open_dir] opened *)
      Store.close store;
      e
    | Ok database ->
      let st = Database.raw database in
      Db_state.set_write_stats_source st (fun () -> Store.write_stats store);
      let schemas = Db_state.schemas st in
      Ok
        {
          database;
          store;
          recovery;
          frame;
          meta_fingerprint = fingerprint st;
          numbers = (schemas, numbers_of schemas);
        }

  let numbers t st =
    let schemas = Db_state.schemas st in
    match t.numbers with
    | keyed, numbers when keyed == schemas -> numbers
    | _ ->
      let numbers = numbers_of schemas in
      t.numbers <- (schemas, numbers);
      numbers

  let db t = t.database
  let recovery t = t.recovery

  (* Writes the root's pending records as one transaction — one
     journal frame, each record encoded once, straight into it — and
     clears them once it is durable. A crash mid-write durably persists
     either the whole batch (meta + items) or none of it: recovery never
     sees a prefix of a check-in. A failed write leaves the same records
     pending. *)
  let write_pending t st =
    (* the root's unflushed set, in id order: O(items changed), never
       a scan of the item table *)
    let items =
      List.filter_map (Db_state.find_item st) (Ident.Set.elements (Db_state.unflushed st))
    in
    let meta = not (meta_unchanged t.meta_fingerprint st) in
    if items = [] && not meta then Ok ()
    else begin
      let frame = t.frame in
      Journal.start frame ~records:(List.length items + Bool.to_int meta);
      (* the meta first: the item records number their names in its
         table, which may be the one a schema update in this batch
         extended *)
      if meta then Journal.add frame record_meta st;
      let item = record_item (numbers t st) (Db_state.dirty st) in
      List.iter (fun it -> Journal.add frame item it) items;
      let* () = Store.append_frame t.store frame in
      Db_state.clear_unflushed st;
      if meta then t.meta_fingerprint <- fingerprint st;
      Ok ()
    end

  let flush t =
    let st = Database.raw t.database in
    (* the unflushed set lives in the root, so a rollback would restore
       it without the ids this flush wrote: flush only between updates,
       never inside a transaction, an attached procedure or a rule *)
    if Db_state.depth st > 0 then
      fail (Invalid_operation "flush inside a transaction or an update")
    else write_pending t st

  (* The flush is the last thing the outermost step does, so nothing
     can roll back what it wrote, and the step publishes only once it
     is durable. A failed flush fails the step: its savepoint swap takes
     the updates back off, and the unflushed set with them. *)
  let transaction t f =
    Database.with_transaction t.database (fun () ->
        let* x = f () in
        let* () = write_pending t (Database.raw t.database) in
        Ok x)

  let compact t =
    let st = Database.raw t.database in
    let* () = Store.compact t.store ~snapshot:(encode_state (numbers t st) st) in
    Db_state.clear_unflushed st;
    t.meta_fingerprint <- fingerprint st;
    Ok ()

  let journal_records t = Store.journal_size t.store

  let close t = Store.close t.store
end
