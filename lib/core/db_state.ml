open Seed_util
open Seed_schema
open Seed_error

(* ------------------------------------------------------------------ *)
(* The copy-on-write root                                               *)
(*                                                                      *)
(* Everything a reader can observe — item table, indexes, extents, the  *)
(* version tree, the schema revisions — lives in one immutable [root]   *)
(* built from persistent values: maps, and the item table's base array  *)
(* with its overlay map. A mutation builds a new root sharing all       *)
(* untouched parts with the old one; publishing it is a single atomic   *)
(* pointer store, and grabbing a consistent snapshot is a single atomic *)
(* load. Pinned roots stay valid forever: nothing reachable from a root *)
(* is ever mutated.                                                     *)
(* ------------------------------------------------------------------ *)

(* The live-membership indexes of one state — the current root's, kept
   up incrementally, or a saved version's, built once. [x_obj cls] holds
   the live normal independent objects classified [cls], [x_pattern cls]
   the live pattern objects, [x_rel assoc] and [x_rel_pattern assoc] the
   live (pattern) relationships, [x_dependent] the live sub-objects, and
   [x_names] the live named independents (patterns included). The
   adjacency is membership too: [x_children] holds the live sub-objects
   by parent, [x_rels_of] the live relationships (patterns included) by
   endpoint, and [x_inheritors] the live independents by inherited
   pattern. *)
type extents = {
  x_obj : Ident.Set.t Smap.t;
  x_pattern : Ident.Set.t Smap.t;
  x_rel : Ident.Set.t Smap.t;
  x_rel_pattern : Ident.Set.t Smap.t;
  x_dependent : Ident.Set.t;
  x_names : Ident.t Smap.t;
  x_children : Ident.Set.t Ident.Map.t;
  x_rels_of : Ident.Set.t Ident.Map.t;
  x_inheritors : Ident.Set.t Ident.Map.t;
}

type root = {
  r_schemas : (int * Schema.t) list;
  r_items : Item_table.t;
  r_ext : extents;
  r_text : Text_index.t option;  (* [None] = text indexing disabled *)
  r_versions : Versioning.t;
  r_current_base : Version_id.t option;
  r_retrieval_version : Version_id.t option;
  r_dirty : Ident.Set.t;
  r_unflushed : Ident.Set.t;
      (* ids whose stored record (current state, delta membership or history)
         changed since the last durable flush; living in the root, it is
         restored by every rollback swap *)
}

(* A materialized view of one saved version: its extents, every
   resolved state and its schema revision, computed by a single
   reconstruction sweep over the item table. Once built, any read
   against the version is a lookup instead of an ancestor-chain
   resolution per item. *)
type version_extent = {
  ve_ext : extents;
  ve_states : Item.state Ident.Tbl.t;
  ve_schema : Schema.t;
  mutable ve_text : Text_index.t option;
      (* trigram index over this version's string values, built lazily
         on the first text query against the view *)
  mutable ve_tick : int;  (* last access, for LRU eviction *)
}

type version_cache_stats = {
  vc_hits : int;
  vc_misses : int;
  vc_evictions : int;
}

(* A handle's version-extent LRU cache and its counters. *)
type version_cache = {
  vc_table : (Version_id.t, version_extent) Hashtbl.t;
  mutable vc_tick : int;
  mutable vc_hit_count : int;
  mutable vc_miss_count : int;
  mutable vc_eviction_count : int;
}

type t = {
  mutable working : root;
  published : root Atomic.t;
  mutable depth : int;  (* atomic steps open on this handle *)
  gen : Ident.Gen.t;
  snapshot_count : int Atomic.t;
  commit_count : int Atomic.t;
  (* Handle-private version-extent LRU cache, made on the handle's first
     version read: a frozen handle starts without one, so concurrent
     readers never share these tables and a snapshot that reads no
     version never makes one. *)
  mutable version_cache : version_cache option;
  (* shared with frozen handles, like [snapshot_count], so searches
     served from snapshots are counted *)
  text_hit_count : int Atomic.t;  (* text predicates answered from the index *)
  text_fallback_count : int Atomic.t;  (* text predicates that had to scan *)
  procedures : (string, proc) Hashtbl.t;
  mutable transition_rules :
    (string * (t -> base:Version_id.t option -> (unit, Seed_error.t) result))
    list;
  (* registered by Persist.Session so Database.stats can surface the
     store's group-commit counters without the state layer holding a
     store *)
  mutable write_stats_source : (unit -> Seed_storage.Commit_daemon.stats) option;
}

and proc = t -> Event.t -> (unit, Seed_error.t) result

let empty_extents =
  {
    x_obj = Smap.empty;
    x_pattern = Smap.empty;
    x_rel = Smap.empty;
    x_rel_pattern = Smap.empty;
    x_dependent = Ident.Set.empty;
    x_names = Smap.empty;
    x_children = Ident.Map.empty;
    x_rels_of = Ident.Map.empty;
    x_inheritors = Ident.Map.empty;
  }

let empty_root schema =
  {
    r_schemas = [ (Schema.revision schema, schema) ];
    r_items = Item_table.empty;
    r_ext = empty_extents;
    r_text = Some Text_index.empty;
    r_versions = Versioning.empty;
    r_current_base = None;
    r_retrieval_version = None;
    r_dirty = Ident.Set.empty;
    r_unflushed = Ident.Set.empty;
  }

let create schema =
  let root = empty_root schema in
  {
    working = root;
    published = Atomic.make root;
    depth = 0;
    gen = Ident.Gen.create ();
    snapshot_count = Atomic.make 0;
    commit_count = Atomic.make 0;
    version_cache = None;
    text_hit_count = Atomic.make 0;
    text_fallback_count = Atomic.make 0;
    procedures = Hashtbl.create 8;
    transition_rules = [];
    write_stats_source = None;
  }

(* ------------------------------------------------------------------ *)
(* Roots, publication, snapshots                                        *)
(* ------------------------------------------------------------------ *)

let publish t =
  (* Schema closures are memoized behind [Lazy.t]; force them on the
     writer before the root escapes so no reader domain ever races on
     [Lazy.force]. *)
  List.iter (fun (_, s) -> Schema.prepare s) t.working.r_schemas;
  Atomic.set t.published t.working;
  Atomic.incr t.commit_count

(* The one atomic step: the root it starts from is the savepoint, and
   every step nested inside it (an attached procedure's update, a
   transaction's operations) only deepens the count. An [Error] or an
   exception swaps the savepoint back — O(1), whatever the step did —
   and only the outermost step publishes. *)
let rewind t savepoint =
  t.working <- savepoint;
  t.depth <- t.depth - 1

let atomically t f =
  let savepoint = t.working in
  t.depth <- t.depth + 1;
  match f () with
  | Ok _ as ok ->
    t.depth <- t.depth - 1;
    if t.depth = 0 then publish t;
    ok
  | Error _ as e ->
    rewind t savepoint;
    e
  | exception exn ->
    rewind t savepoint;
    raise exn

let depth t = t.depth

let freeze t =
  let root = Atomic.get t.published in
  Atomic.incr t.snapshot_count;
  {
    working = root;
    published = Atomic.make root;
    depth = 0;
    gen = t.gen;
    snapshot_count = t.snapshot_count;
    commit_count = t.commit_count;
    version_cache = None;
    text_hit_count = t.text_hit_count;
    text_fallback_count = t.text_fallback_count;
    procedures = t.procedures;
    transition_rules = [];
    write_stats_source = t.write_stats_source;
  }

let snapshot_grabs t = Atomic.get t.snapshot_count
let commits_published t = Atomic.get t.commit_count
let set_write_stats_source t f = t.write_stats_source <- Some f

let write_stats t = Option.map (fun f -> f ()) t.write_stats_source

(* ------------------------------------------------------------------ *)
(* Root-level field accessors                                           *)
(* ------------------------------------------------------------------ *)

let head_schema r = snd (List.hd r.r_schemas)
let schema t = head_schema t.working
let schemas t = t.working.r_schemas
let set_schemas t l = t.working <- { t.working with r_schemas = l }
let schema_at_revision t rev = List.assoc_opt rev t.working.r_schemas
let versions t = t.working.r_versions
let set_versions t v = t.working <- { t.working with r_versions = v }
let current_base t = t.working.r_current_base
let set_current_base t b = t.working <- { t.working with r_current_base = b }
let retrieval_version t = t.working.r_retrieval_version

let set_retrieval_version t v =
  t.working <- { t.working with r_retrieval_version = v }

let gen t = t.gen
let fresh_id t = Ident.Gen.next t.gen

let get_item t id = Item_table.get t.working.r_items id
let find_item t id = Item_table.find t.working.r_items id

let find_item_res t id =
  match find_item t id with
  | Some it -> Ok it
  | None -> fail (Unknown_item (Ident.to_string id))

let item_count t = Item_table.count t.working.r_items
let iter_items t f = Item_table.iter f t.working.r_items
let fold_items t ~init ~f = Item_table.fold f init t.working.r_items

(* ------------------------------------------------------------------ *)
(* Extents                                                              *)
(*                                                                      *)
(* Invariant: an item belongs to exactly the extent matching the state  *)
(* the extents were built from — the current state for the root's, the  *)
(* resolved state for a version's. Deleted and absent states are in no  *)
(* extent. Re-classification moves the item between class extents,      *)
(* deletion drops it, and a pattern flip (never produced today, but     *)
(* handled uniformly) would move it between the normal and pattern      *)
(* maps. [slot] is the one membership rule, adjacency included:         *)
(* [membership] applies it as [add_item] and [replace_state] keep the   *)
(* root's extents, and [extents_of] in one wholesale build for open,    *)
(* branch switch and every version view.                                *)
(* ------------------------------------------------------------------ *)

(* The text index covers exactly the live object states (independent or
   dependent, patterns included) carrying a string value; the class path
   — the full dotted path for sub-objects — is the posting's attribute
   path. This predicate is the single source of truth for what gets
   indexed: the incremental hook, the wholesale rebuilds, and the
   consistency check in the soak harness all go through it. It
   allocates nothing, so the rebuild counts carriers with it. *)
let carries_text (item : Item.t) (state : Item.state) =
  match (item.Item.body, state) with
  | (Item.Independent | Item.Dependent _), Item.Obj o -> (
    (not o.deleted) && match o.value with Some (Value.String _) -> true | _ -> false)
  | _ -> false

(* Pass [item]'s document at [state] to [f] when it carries one. *)
let text_doc f (item : Item.t) (state : Item.state) =
  match state with
  | Item.Obj { cls; value = Some (Value.String s); _ } when carries_text item state ->
    f item.Item.id ~path:cls s
  | _ -> ()

(* One wholesale build over the item table, each item at the state
   [state_of] resolves for it: the current state for the root's index, the
   resolved one for a version's. It walks the table twice, to count the
   carriers and to fill, and builds no list. *)
let build_text_index items state_of =
  let carriers =
    Item_table.fold (fun n it -> if carries_text it (state_of it) then n + 1 else n) 0 items
  in
  Text_index.of_docs carriers (fun f -> Item_table.iter (fun it -> text_doc f it (state_of it)) items)

let current_state (it : Item.t) = it.Item.current

(* The root's text index brought in line with [item] holding [state]: its
   string indexed, or the carrier dropped. *)
let text_of r (item : Item.t) (state : Item.state) =
  match r.r_text with
  | None -> None
  | Some tx ->
    let tx' =
      match state with
      | Item.Obj { cls; value = Some (Value.String s); _ } when carries_text item state ->
        Text_index.add_doc tx item.Item.id ~path:cls s
      | _ -> Text_index.remove_doc tx item.Item.id
    in
    if tx' == tx then r.r_text else Some tx'

let add_or_remove_id ~add m k id = Smap.update k (Smap.member ~add id) m

(* The one membership rule: the extent [state] puts [item] in, if any,
   with the keys its adjacency lists it under: a sub-object's parent, a
   relationship's endpoints, an object's inherited patterns. Deleted and
   absent states, and a state that does not fit the body, are in none. *)
type slot =
  | Outside
  | Object of { pattern : bool; cls : string; name : string option; inherits : Ident.t list }
  | Sub_object of Ident.t
  | Relation of { pattern : bool; assoc : string; endpoints : Ident.t list }

let slot (item : Item.t) (state : Item.state) =
  match (item.Item.body, state) with
  | _, Item.Absent -> Outside
  | _, s when Item.state_deleted s -> Outside
  | Item.Independent, Item.Obj o ->
    Object { pattern = o.pattern; cls = o.cls; name = o.name; inherits = o.inherits }
  | Item.Dependent { parent; _ }, Item.Obj _ -> Sub_object parent
  | Item.Relationship, Item.Rel rel ->
    Relation { pattern = rel.rel_pattern; assoc = rel.assoc; endpoints = rel.endpoints }
  | (Item.Independent | Item.Dependent _), Item.Rel _ | Item.Relationship, Item.Obj _ -> Outside

(* [slot item a = slot item b] read off the states without building
   either slot, so a value update allocates nothing here; [false] for
   two [Outside] states only costs a move that changes nothing. *)
let same_slot (item : Item.t) a b =
  match (a, b) with
  | Item.Obj o, Item.Obj p -> (
    (not (o.deleted || p.deleted))
    &&
    match item.Item.body with
    | Item.Independent ->
      o.pattern = p.pattern && o.cls = p.cls && o.name = p.name && o.inherits = p.inherits
    | Item.Dependent _ | Item.Relationship -> true)
  | Item.Rel r, Item.Rel q ->
    (not (r.rel_deleted || q.rel_deleted))
    && r.rel_pattern = q.rel_pattern && r.assoc = q.assoc && r.endpoints = q.endpoints
  | _ -> false

(* [m] with [id] entered ([~add:true]) or dropped under [k], or under
   each of [keys] *)
let adjacency ~add m k id = Ident.Map.update k (Smap.member ~add id) m

let rec under ~add m id = function
  | [] -> m
  | k :: keys -> under ~add (adjacency ~add m k id) id keys

(* Enter ([~add:true]) or drop [state]'s extent membership for [item]. A
   name binding is dropped only while it is still this item's. The text
   index has its own hook ([text_of]): the wholesale rebuild builds
   it in one pass. *)
let membership ~add x (item : Item.t) (state : Item.state) =
  let id = item.Item.id in
  match slot item state with
  | Outside -> x
  | Object { pattern; cls; name; inherits } ->
    let x_names =
      match name with
      | None -> x.x_names
      | Some n when add -> Smap.add n id x.x_names
      | Some n -> (
        match Smap.find_opt n x.x_names with
        | Some bound when Ident.equal bound id -> Smap.remove n x.x_names
        | Some _ | None -> x.x_names)
    in
    let x_inheritors = under ~add x.x_inheritors id inherits in
    if pattern then
      { x with x_pattern = add_or_remove_id ~add x.x_pattern cls id; x_names; x_inheritors }
    else { x with x_obj = add_or_remove_id ~add x.x_obj cls id; x_names; x_inheritors }
  | Sub_object parent ->
    let op = if add then Ident.Set.add else Ident.Set.remove in
    { x with x_dependent = op id x.x_dependent; x_children = adjacency ~add x.x_children parent id }
  | Relation { pattern; assoc; endpoints } ->
    let x_rels_of = under ~add x.x_rels_of id endpoints in
    if pattern then
      { x with x_rel_pattern = add_or_remove_id ~add x.x_rel_pattern assoc id; x_rels_of }
    else { x with x_rel = add_or_remove_id ~add x.x_rel assoc id; x_rels_of }

(* The one wholesale build, of the items [iter add] passes to [add item
   state] in increasing id order: routed by [slot] as [membership] routes
   them, but the groups grow through {!Ident.Set.push}. The adjacency
   maps take one persistent insert per entry, whose copies die young: a
   builder per key would keep one live per parent. *)
let extents_of iter =
  (* per extent group, a builder for each class or association *)
  let objs = Hashtbl.create 16 and patterns = Hashtbl.create 16 in
  let rels = Hashtbl.create 16 and rel_patterns = Hashtbl.create 16 in
  let extend group key id =
    match Hashtbl.find group key with
    | b -> Ident.Set.push b id
    | exception Not_found ->
      let b = Ident.Set.builder () in
      Ident.Set.push b id;
      Hashtbl.add group key b
  in
  let dependent = Ident.Set.builder () and names = ref Smap.empty in
  let children = ref Ident.Map.empty and rels_of = ref Ident.Map.empty in
  let inheritors = ref Ident.Map.empty in
  iter (fun (it : Item.t) state ->
      let id = it.Item.id in
      match slot it state with
      | Outside -> ()
      | Object { pattern; cls; name; inherits } ->
        Option.iter (fun n -> names := Smap.add n id !names) name;
        inheritors := under ~add:true !inheritors id inherits;
        extend (if pattern then patterns else objs) cls id
      | Sub_object parent ->
        Ident.Set.push dependent id;
        children := adjacency ~add:true !children parent id
      | Relation { pattern; assoc; endpoints } ->
        rels_of := under ~add:true !rels_of id endpoints;
        extend (if pattern then rel_patterns else rels) assoc id);
  let group g = Hashtbl.fold (fun k b m -> Smap.add k (Ident.Set.build b) m) g Smap.empty in
  {
    x_obj = group objs;
    x_pattern = group patterns;
    x_rel = group rels;
    x_rel_pattern = group rel_patterns;
    x_dependent = Ident.Set.build dependent;
    x_names = !names;
    x_children = !children;
    x_rels_of = !rels_of;
    x_inheritors = !inheritors;
  }

let extents t = t.working.r_ext
let obj_extent x cls = Smap.ids (Smap.find_opt cls x.x_obj)
let rel_extent x assoc = Smap.ids (Smap.find_opt assoc x.x_rel)
let fold_obj_extents x f init =
  Smap.fold (fun _ s acc -> Ident.Set.fold f s acc) x.x_obj init
let all_pattern_extent_ids x = Smap.all_ids x.x_pattern
let all_rel_extent_ids x = Smap.all_ids x.x_rel
let cardinals m = Smap.fold (fun _ s n -> n + Ident.Set.cardinal s) m 0
let live_object_count x = cardinals x.x_obj
let live_pattern_count x = cardinals x.x_pattern
let live_rel_count x = cardinals x.x_rel
let live_dependent_count x = Ident.Set.cardinal x.x_dependent
let find_id_by_name x name = Smap.find_opt name x.x_names
let children_of x id = Ident.Map.find_or ~default:Ident.Set.empty id x.x_children
let rels_of x id = Ident.Map.find_or ~default:Ident.Set.empty id x.x_rels_of
let inheritors_of x id = Ident.Map.find_or ~default:Ident.Set.empty id x.x_inheritors

let fold_live_ids x f init =
  let groups m acc = Smap.fold (fun _ s acc -> Ident.Set.fold f s acc) m acc in
  init |> groups x.x_obj |> groups x.x_pattern |> groups x.x_rel
  |> groups x.x_rel_pattern |> Ident.Set.fold f x.x_dependent

(* ------------------------------------------------------------------ *)
(* Item mutation (new roots)                                            *)
(* ------------------------------------------------------------------ *)

(* The one single-item writer of the item table: [r]'s table with [item]
   stored, and its unflushed set with [item]'s id — every record it
   stores is one the next flush must write. Its callers build one root
   from the pair. *)
let put r (item : Item.t) =
  (Item_table.add r.r_items item, Ident.Set.add item.id r.r_unflushed)

(* The two writers of an item's current state; each enters the item in
   the delta set in the same root update. *)
let add_item t (item : Item.t) =
  let r = t.working in
  let r_items, r_unflushed = put r item in
  t.working <-
    {
      r with
      r_items;
      r_unflushed;
      r_dirty = Ident.Set.add item.id r.r_dirty;
      r_ext = membership ~add:true r.r_ext item item.current;
      r_text = text_of r item item.current;
    }

(* A state in the same extent slot (a value update) keeps the extents;
   a rename, reclassification, (un-)inheritance or delete moves the
   item. *)
let replace_state t id new_state =
  match find_item t id with
  | None -> ()
  | Some item ->
    let r = t.working in
    let item' = Item.with_current item new_state in
    let r_items, r_unflushed = put r item' in
    t.working <-
      {
        r with
        r_items;
        r_unflushed;
        r_dirty = Ident.Set.add id r.r_dirty;
        r_ext =
          (if same_slot item item.current item'.current then r.r_ext
           else
             membership ~add:true
               (membership ~add:false r.r_ext item item.current)
               item' item'.current);
        r_text = text_of r item' item'.current;
      }

(* Replace the stored record without any index maintenance: a version
   stamp, or a test tampering with an item behind the API's back. *)
let unsafe_put_item t item =
  let r_items, r_unflushed = put t.working item in
  t.working <- { t.working with r_items; r_unflushed }

(* Whether [b] stores a different record than [a]. [Item.with_current]
   always allocates, so states are compared by value: a branch switch
   re-resolving an unchanged state must not re-flush it. *)
let record_changed (a : Item.t) (b : Item.t) =
  a != b
  && (a.Item.history != b.Item.history
     || not (a.Item.current == b.Item.current || a.Item.current = b.Item.current))

let map_items t f =
  let r = t.working in
  let unflushed = ref r.r_unflushed in
  let items =
    Item_table.map
      (fun it ->
        let it' = f it in
        if record_changed it it' then unflushed := Ident.Set.add it.Item.id !unflushed;
        it')
      r.r_items
  in
  t.working <- { r with r_items = items; r_unflushed = !unflushed }

(* ------------------------------------------------------------------ *)
(* The delta set                                                        *)
(*                                                                      *)
(* [r_dirty] alone says what the next version stamps. A stored record   *)
(* carries its membership as a byte written from the set, so emptying   *)
(* the set changes the stored record of each former member.             *)
(* ------------------------------------------------------------------ *)

let dirty t = t.working.r_dirty

let clear_dirty t =
  let r = t.working in
  t.working <-
    {
      r with
      r_dirty = Ident.Set.empty;
      r_unflushed = Ident.Set.union r.r_dirty r.r_unflushed;
    }

let stamp_dirty t vid =
  let delta = t.working.r_dirty in
  Ident.Set.iter
    (fun id -> Option.iter (fun it -> unsafe_put_item t (Item.stamp it vid)) (find_item t id))
    delta;
  t.working <- { t.working with r_dirty = Ident.Set.empty };
  Ident.Set.cardinal delta

let drop_version_stamps t vid = map_items t (fun it -> Item.drop_stamp it vid)

(* ------------------------------------------------------------------ *)
(* The unflushed set                                                    *)
(*                                                                      *)
(* Every write site above that changes a stored record adds its id, so  *)
(* a durable flush encodes exactly these items and never scans the      *)
(* table. The set lives in the root: a rollback swap restores it along  *)
(* with the records it describes.                                       *)
(* ------------------------------------------------------------------ *)

let unflushed t = t.working.r_unflushed

let clear_unflushed t =
  t.working <- { t.working with r_unflushed = Ident.Set.empty }

(* One fold over items arriving in increasing id order: the item table,
   the delta set and every extent at once, with no list of the database.
   The table's base array is allocated once for [capacity] items and
   filled in place, the delta set grows through {!Ident.Set.push}, the
   extents through the wholesale build as each item arrives, which
   spares a second walk over the finished table (DESIGN §6). *)
let load t ~capacity feed =
  let r = t.working in
  let items = Item_table.builder capacity and dirty = Ident.Set.builder () in
  let r_ext =
    extents_of (fun add ->
        feed (fun (it : Item.t) in_delta ->
            let id = it.Item.id in
            Item_table.push items it;
            if in_delta then Ident.Set.push dirty id;
            add it it.Item.current;
            Ident.Gen.mark_used t.gen id))
  in
  let items = Item_table.build items in
  t.working <-
    {
      r with
      r_items = items;
      r_ext;
      r_dirty = Ident.Set.build dirty;
      r_text = Option.map (fun _ -> build_text_index items current_state) r.r_text;
    }

(* ------------------------------------------------------------------ *)
(* Materialized version views                                           *)
(*                                                                      *)
(* A version's extent is the same fold as the root's rebuild, over the  *)
(* states [Versioning.state_at] resolves. It is a pure function of the  *)
(* item histories and the version tree, both of which change only at    *)
(* well-known points: a new snapshot stamps a {e fresh} label (never a  *)
(* cached one — labels are never reused, and an unknown label is never  *)
(* cached), version deletion is leaf-only and drops exactly that        *)
(* label's stamps, and a load rebuilds the whole state. A cached extent *)
(* therefore stays valid until its own version is deleted; the cache is *)
(* invalidated per label on delete and starts empty after load/restore  *)
(* (and in every frozen handle — the cache is private to its handle, so *)
(* reader domains never contend on it).                                 *)
(* ------------------------------------------------------------------ *)

let version_cache_capacity = 8

let build_version_extent t (node : Versioning.node) =
  let r = t.working in
  let states = Ident.Tbl.create (Item_table.count r.r_items) in
  let state_at = Versioning.state_at r.r_versions node.Versioning.vid in
  let resolved (it : Item.t) =
    let s = state_at it in
    (match s with Item.Absent -> () | s -> Ident.Tbl.replace states it.Item.id s);
    s
  in
  {
    ve_ext = extents_of (fun add -> Item_table.iter (fun it -> add it (resolved it)) r.r_items);
    ve_states = states;
    ve_schema =
      Option.value ~default:(head_schema r) (schema_at_revision t node.Versioning.schema_rev);
    ve_text = None;
    ve_tick = 0;
  }

let evict_version_lru vc =
  let victim =
    Hashtbl.fold
      (fun vid ve acc ->
        match acc with
        | Some (_, best) when best <= ve.ve_tick -> acc
        | _ -> Some (vid, ve.ve_tick))
      vc.vc_table None
  in
  match victim with
  | Some (vid, _) ->
    Hashtbl.remove vc.vc_table vid;
    vc.vc_eviction_count <- vc.vc_eviction_count + 1
  | None -> ()

let version_cache t =
  match t.version_cache with
  | Some vc -> vc
  | None ->
    let vc =
      {
        vc_table = Hashtbl.create 8;
        vc_tick = 0;
        vc_hit_count = 0;
        vc_miss_count = 0;
        vc_eviction_count = 0;
      }
    in
    t.version_cache <- Some vc;
    vc

let version_extent t vid =
  let vc = version_cache t in
  (* only known labels are cached, so a hit needs no tree lookup *)
  match Hashtbl.find_opt vc.vc_table vid with
  | Some ve ->
    vc.vc_tick <- vc.vc_tick + 1;
    ve.ve_tick <- vc.vc_tick;
    vc.vc_hit_count <- vc.vc_hit_count + 1;
    ve
  | None -> (
    match Versioning.find t.working.r_versions vid with
    | None ->
      {
        ve_ext = empty_extents;
        ve_states = Ident.Tbl.create 1;
        ve_schema = schema t;
        ve_text = None;
        ve_tick = 0;
      }
    | Some node ->
      vc.vc_tick <- vc.vc_tick + 1;
      vc.vc_miss_count <- vc.vc_miss_count + 1;
      let ve = build_version_extent t node in
      ve.ve_tick <- vc.vc_tick;
      Hashtbl.replace vc.vc_table vid ve;
      if Hashtbl.length vc.vc_table > version_cache_capacity then evict_version_lru vc;
      ve)

let invalidate_version_cache t vid =
  Option.iter (fun vc -> Hashtbl.remove vc.vc_table vid) t.version_cache

let version_cache_stats t =
  match t.version_cache with
  | None -> { vc_hits = 0; vc_misses = 0; vc_evictions = 0 }
  | Some vc ->
    {
      vc_hits = vc.vc_hit_count;
      vc_misses = vc.vc_miss_count;
      vc_evictions = vc.vc_eviction_count;
    }

let ve_extents ve = ve.ve_ext
let ve_schema ve = ve.ve_schema
let ve_state ve id =
  match Ident.Tbl.find ve.ve_states id with s -> s | exception Not_found -> Item.Absent

(* ------------------------------------------------------------------ *)
(* Text index                                                           *)
(*                                                                      *)
(* The trigram index lives in the root next to the extents and is       *)
(* maintained beside them ([text_of] in [add_item] and                 *)
(* [replace_state]), so every state replacement —                       *)
(* create, value update, logical delete, re-classification, rollback by *)
(* root swap — keeps it exact, and [load] builds it in one pass on      *)
(* branch switch and open. Version views get their own                  *)
(* frozen index, built lazily from the materialized states and cached   *)
(* on the version extent (handle-private, like the extent itself).      *)
(* ------------------------------------------------------------------ *)

let text_index t = t.working.r_text
let text_index_enabled t = t.working.r_text <> None

let rebuilt_text_index t = build_text_index t.working.r_items current_state

let set_text_index_enabled t on =
  match (t.working.r_text, on) with
  | Some _, true | None, false -> ()
  | Some _, false -> t.working <- { t.working with r_text = None }
  | None, true ->
    t.working <-
      { t.working with r_text = Some (build_text_index t.working.r_items current_state) }

let text_stats t = Option.map Text_index.stats t.working.r_text
let note_text_queries t ~hits ~fallbacks =
  if hits > 0 then ignore (Atomic.fetch_and_add t.text_hit_count hits);
  if fallbacks > 0 then ignore (Atomic.fetch_and_add t.text_fallback_count fallbacks)
let text_counters t = (Atomic.get t.text_hit_count, Atomic.get t.text_fallback_count)

let ve_text_index t ve =
  match ve.ve_text with
  | Some tx -> tx
  | None ->
    let tx = build_text_index t.working.r_items (fun it -> ve_state ve it.Item.id) in
    ve.ve_text <- Some tx;
    tx

(* ------------------------------------------------------------------ *)
(* Registries (handle-level, not part of the root)                      *)
(* ------------------------------------------------------------------ *)

let register_procedure t name p = Hashtbl.replace t.procedures name p

let find_procedure t name =
  match Hashtbl.find_opt t.procedures name with
  | Some p -> Ok p
  | None -> fail (Unknown_procedure name)

let transition_rules t = t.transition_rules
let set_transition_rules t l = t.transition_rules <- l
