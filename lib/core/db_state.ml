open Seed_util
open Seed_schema
open Seed_error

(* ------------------------------------------------------------------ *)
(* The copy-on-write root                                               *)
(*                                                                      *)
(* Everything a reader can observe — item table, indexes, extents, the  *)
(* version tree, the schema revisions — lives in one immutable [root]   *)
(* built from persistent maps. A mutation builds a new root sharing all *)
(* untouched branches with the old one; publishing it is a single       *)
(* atomic pointer store, and grabbing a consistent snapshot is a single *)
(* atomic load. Pinned roots stay valid forever: nothing reachable from *)
(* a root is ever mutated.                                              *)
(* ------------------------------------------------------------------ *)

type root = {
  r_schema : Schema.t;
  r_schemas : (int * Schema.t) list;
  r_items : Item.t Ident.Map.t;
  r_names : Ident.t Smap.t;
  r_children : Idmap.t;
  r_rels_of : Idmap.t;
  r_inheritors : Idmap.t;
  r_obj_extent : Ident.Set.t Smap.t;
  r_pattern_extent : Ident.Set.t Smap.t;
  r_rel_extent : Ident.Set.t Smap.t;
  r_rel_pattern_extent : Ident.Set.t Smap.t;
  r_dependent_extent : Ident.Set.t;
  r_text : Text_index.t option;  (* [None] = text indexing disabled *)
  r_versions : Versioning.t;
  r_current_base : Version_id.t option;
  r_retrieval_version : Version_id.t option;
  r_dirty : Ident.Set.t;
  r_unflushed : Ident.Set.t;
      (* ids whose stored record (current state, dirty flag or history)
         changed since the last durable flush; living in the root, it is
         restored by every rollback swap *)
}

(* A materialized view of one saved version: the live ids per class and
   association, the name index, and every resolved state of that
   version, computed by a single reconstruction sweep over the item
   table. Once built, any read against the version is a lookup instead
   of an ancestor-chain resolution per item. Id lists are sorted deduped
   arrays: compact and cache-friendly. *)
type version_extent = {
  ve_obj : (string, Ident.t array) Hashtbl.t;
  ve_pattern : (string, Ident.t array) Hashtbl.t;
  ve_rel : (string, Ident.t array) Hashtbl.t;
  ve_names : (string, Ident.t) Hashtbl.t;
  ve_states : Item.state Ident.Tbl.t;
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

type t = {
  mutable working : root;
  published : root Atomic.t;
  mutable txn_root : root option;
  gen : Ident.Gen.t;
  snapshot_count : int Atomic.t;
  commit_count : int Atomic.t;
  (* Handle-private version-extent LRU cache. A frozen handle gets its
     own empty cache, so concurrent readers never share these tables. *)
  version_cache : (Version_id.t, version_extent) Hashtbl.t;
  mutable version_cache_capacity : int;
  mutable version_cache_tick : int;
  mutable vc_hit_count : int;
  mutable vc_miss_count : int;
  mutable vc_eviction_count : int;
  mutable text_hit_count : int;  (* text predicates answered from the index *)
  mutable text_fallback_count : int;  (* text predicates that had to scan *)
  procedures : (string, proc) Hashtbl.t;
  mutable proc_depth : int;
  mutable transition_rules :
    (string * (t -> base:Version_id.t option -> (unit, Seed_error.t) result))
    list;
  (* registered by Persist.Session so Database.stats can surface the
     store's group-commit counters without the state layer holding a
     store *)
  mutable write_stats_source : (unit -> Seed_storage.Commit_daemon.stats) option;
}

and proc = t -> Event.t -> (unit, Seed_error.t) result

let empty_root schema =
  {
    r_schema = schema;
    r_schemas = [ (Schema.revision schema, schema) ];
    r_items = Ident.Map.empty;
    r_names = Smap.empty;
    r_children = Idmap.empty;
    r_rels_of = Idmap.empty;
    r_inheritors = Idmap.empty;
    r_obj_extent = Smap.empty;
    r_pattern_extent = Smap.empty;
    r_rel_extent = Smap.empty;
    r_rel_pattern_extent = Smap.empty;
    r_dependent_extent = Ident.Set.empty;
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
    txn_root = None;
    gen = Ident.Gen.create ();
    snapshot_count = Atomic.make 0;
    commit_count = Atomic.make 0;
    version_cache = Hashtbl.create 8;
    version_cache_capacity = 8;
    version_cache_tick = 0;
    vc_hit_count = 0;
    vc_miss_count = 0;
    vc_eviction_count = 0;
    text_hit_count = 0;
    text_fallback_count = 0;
    procedures = Hashtbl.create 8;
    proc_depth = 0;
    transition_rules = [];
    write_stats_source = None;
  }

(* ------------------------------------------------------------------ *)
(* Roots, publication, snapshots                                        *)
(* ------------------------------------------------------------------ *)

let root t = t.working
let set_root t root = t.working <- root

let publish t =
  if t.txn_root = None then begin
    (* Schema closures are memoized behind [Lazy.t]; force them on the
       writer before the root escapes so no reader domain ever races on
       [Lazy.force]. *)
    Schema.prepare t.working.r_schema;
    List.iter (fun (_, s) -> Schema.prepare s) t.working.r_schemas;
    Atomic.set t.published t.working;
    Atomic.incr t.commit_count
  end

let freeze t =
  let root = Atomic.get t.published in
  Atomic.incr t.snapshot_count;
  {
    working = root;
    published = Atomic.make root;
    txn_root = None;
    gen = t.gen;
    snapshot_count = t.snapshot_count;
    commit_count = t.commit_count;
    version_cache = Hashtbl.create 8;
    version_cache_capacity = t.version_cache_capacity;
    version_cache_tick = 0;
    vc_hit_count = 0;
    vc_miss_count = 0;
    vc_eviction_count = 0;
    text_hit_count = 0;
    text_fallback_count = 0;
    procedures = t.procedures;
    proc_depth = 0;
    transition_rules = [];
    write_stats_source = t.write_stats_source;
  }

let snapshot_grabs t = Atomic.get t.snapshot_count
let commits_published t = Atomic.get t.commit_count
let set_write_stats_source t f = t.write_stats_source <- Some f

let write_stats t = Option.map (fun f -> f ()) t.write_stats_source

let begin_txn t = t.txn_root <- Some t.working

let commit_txn t =
  t.txn_root <- None;
  publish t

let rollback_txn t =
  match t.txn_root with
  | Some r ->
    t.working <- r;
    t.txn_root <- None
  | None -> ()

let txn_active t = t.txn_root <> None

(* ------------------------------------------------------------------ *)
(* Root-level field accessors                                           *)
(* ------------------------------------------------------------------ *)

let schema t = t.working.r_schema
let set_schema t s = t.working <- { t.working with r_schema = s }
let schemas t = t.working.r_schemas
let set_schemas t l = t.working <- { t.working with r_schemas = l }
let versions t = t.working.r_versions
let set_versions t v = t.working <- { t.working with r_versions = v }
let current_base t = t.working.r_current_base
let set_current_base t b = t.working <- { t.working with r_current_base = b }
let retrieval_version t = t.working.r_retrieval_version

let set_retrieval_version t v =
  t.working <- { t.working with r_retrieval_version = v }

let gen t = t.gen
let fresh_id t = Ident.Gen.next t.gen

let find_item t id = Ident.Map.find_opt id t.working.r_items

let find_item_res t id =
  match find_item t id with
  | Some it -> Ok it
  | None -> fail (Unknown_item (Ident.to_string id))

let item_count t = Ident.Map.cardinal t.working.r_items

let iter_items t f = Ident.Map.iter (fun _ it -> f it) t.working.r_items

let fold_items t ~init ~f =
  Ident.Map.fold (fun _ it acc -> f acc it) t.working.r_items init

(* ------------------------------------------------------------------ *)
(* Class / association extents                                          *)
(*                                                                      *)
(* Invariant: after every replacement of an item's current state the    *)
(* item belongs to exactly the extent matching that state —             *)
(* [r_obj_extent cls] holds the live normal independent objects         *)
(* classified [cls], [r_pattern_extent cls] the live pattern objects,   *)
(* [r_rel_extent assoc] and [r_rel_pattern_extent assoc] the live       *)
(* (pattern) relationships, and [r_dependent_extent] the live           *)
(* sub-objects. Deleted items and items with no current state are in no *)
(* extent. Re-classification moves the item between class extents,      *)
(* deletion drops it, and a pattern flip (never produced today, but     *)
(* handled uniformly) would move it between the normal and pattern      *)
(* maps. [replace_state] maintains all of this in one place.            *)
(* ------------------------------------------------------------------ *)

(* The text index covers exactly the live object states (independent or
   dependent, patterns included) carrying a string value; the class path
   — the full dotted path for sub-objects — is the posting's attribute
   path. This predicate is the single source of truth for what gets
   indexed: the incremental hooks, the wholesale rebuilds, and the
   consistency check in the soak harness all go through it. *)
let text_doc_of_state (item : Item.t) (state : Item.state option) =
  match (item.Item.body, state) with
  | (Item.Independent | Item.Dependent _), Some (Item.Obj o)
    when not o.Item.deleted -> (
    match o.Item.value with
    | Some (Value.String s) -> Some (o.Item.cls, s)
    | Some _ | None -> None)
  | _ -> None

let build_text_index items =
  Text_index.of_docs
    (Seq.fold_left
       (fun acc ((id, it) : Ident.t * Item.t) ->
         match text_doc_of_state it it.Item.current with
         | Some (path, s) -> (id, path, s) :: acc
         | None -> acc)
       [] (Ident.Map.to_rev_seq items))

(* Bring the text index in line with [item] holding [state]: index its
   string, or drop the carrier. *)
let root_text r (item : Item.t) (state : Item.state option) =
  match r.r_text with
  | None -> r
  | Some tx ->
    let tx' =
      match text_doc_of_state item state with
      | Some (path, s) -> Text_index.add_doc tx item.Item.id ~path s
      | None -> Text_index.remove_doc tx item.Item.id
    in
    if tx' == tx then r else { r with r_text = Some tx' }

(* Enter [state]'s extent membership for [item] into [r]; no-op for
   deleted or absent states. The text index has its own hook
   ([root_text]): the wholesale rebuild builds it in one pass. *)
let root_index_state r (item : Item.t) (state : Item.state option) =
  match state with
  | None -> r
  | Some s when Item.state_deleted s -> r
  | Some (Item.Obj o) -> (
    match item.body with
    | Item.Independent ->
      let r =
        if o.Item.pattern then
          { r with r_pattern_extent = Smap.add_id r.r_pattern_extent o.Item.cls item.id }
        else { r with r_obj_extent = Smap.add_id r.r_obj_extent o.Item.cls item.id }
      in
      (match o.Item.name with
      | Some n -> { r with r_names = Smap.add n item.id r.r_names }
      | None -> r)
    | Item.Dependent _ ->
      { r with r_dependent_extent = Ident.Set.add item.id r.r_dependent_extent }
    | Item.Relationship -> r)
  | Some (Item.Rel rel) -> (
    match item.body with
    | Item.Relationship ->
      if rel.Item.rel_pattern then
        {
          r with
          r_rel_pattern_extent =
            Smap.add_id r.r_rel_pattern_extent rel.Item.assoc item.id;
        }
      else { r with r_rel_extent = Smap.add_id r.r_rel_extent rel.Item.assoc item.id }
    | Item.Independent | Item.Dependent _ -> r)

(* Drop [state]'s extent membership for [item] from [r]. *)
let root_unindex_state r (item : Item.t) (state : Item.state option) =
  match state with
  | None -> r
  | Some (Item.Obj o) -> (
    match item.body with
    | Item.Independent ->
      let r =
        if Item.state_deleted (Item.Obj o) then r
        else if o.Item.pattern then
          {
            r with
            r_pattern_extent = Smap.remove_id r.r_pattern_extent o.Item.cls item.id;
          }
        else
          { r with r_obj_extent = Smap.remove_id r.r_obj_extent o.Item.cls item.id }
      in
      (match o.Item.name with
      | Some n when (match Smap.find_opt n r.r_names with
                    | Some id -> Ident.equal id item.id
                    | None -> false) ->
        { r with r_names = Smap.remove n r.r_names }
      | Some _ | None -> r)
    | Item.Dependent _ ->
      { r with r_dependent_extent = Ident.Set.remove item.id r.r_dependent_extent }
    | Item.Relationship -> r)
  | Some (Item.Rel rel) -> (
    match item.body with
    | Item.Relationship ->
      if Item.state_deleted (Item.Rel rel) then r
      else if rel.Item.rel_pattern then
        {
          r with
          r_rel_pattern_extent =
            Smap.remove_id r.r_rel_pattern_extent rel.Item.assoc item.id;
        }
      else
        { r with r_rel_extent = Smap.remove_id r.r_rel_extent rel.Item.assoc item.id }
    | Item.Independent | Item.Dependent _ -> r)

let obj_extent t cls = Smap.set t.working.r_obj_extent cls
let rel_extent t assoc = Smap.set t.working.r_rel_extent assoc
let fold_obj_extents t f init =
  Smap.fold (fun _ s acc -> Ident.Set.fold f s acc) t.working.r_obj_extent init
let all_pattern_extent_ids t = Smap.all_ids t.working.r_pattern_extent
let all_rel_extent_ids t = Smap.all_ids t.working.r_rel_extent
let all_rel_pattern_extent_ids t = Smap.all_ids t.working.r_rel_pattern_extent
let dependent_extent_ids t = Ident.Set.elements t.working.r_dependent_extent
let live_dependent_count t = Ident.Set.cardinal t.working.r_dependent_extent

let all_live_ids t =
  fold_obj_extents t List.cons
    (all_pattern_extent_ids t @ all_rel_extent_ids t
    @ all_rel_pattern_extent_ids t @ dependent_extent_ids t)

(* ------------------------------------------------------------------ *)
(* Item mutation (new roots)                                            *)
(* ------------------------------------------------------------------ *)

let add_item t (item : Item.t) =
  let r = t.working in
  let r =
    {
      r with
      r_items = Ident.Map.add item.id item r.r_items;
      r_unflushed = Ident.Set.add item.id r.r_unflushed;
    }
  in
  let r = root_text (root_index_state r item item.current) item item.current in
  let r =
    match item.body with
    | Item.Dependent { parent; _ } ->
      { r with r_children = Idmap.add r.r_children parent item.id }
    | Item.Independent -> r
    | Item.Relationship -> (
      match Item.rel_state item with
      | Some { endpoints; _ } ->
        {
          r with
          r_rels_of =
            List.fold_left (fun m e -> Idmap.add m e item.id) r.r_rels_of endpoints;
        }
      | None -> r)
  in
  t.working <- r

let add_loaded_item t (item : Item.t) =
  (* Like [add_item] but suitable for items loaded from storage: an item
     may exist only in history (current = None), in which case the
     relationship index must still cover its historical endpoints. Name,
     inheritor, and extent indexes are rebuilt wholesale afterwards. A
     loaded record is the stored one, so it is not unflushed. *)
  let r = t.working in
  let r = { r with r_items = Ident.Map.add item.id item r.r_items } in
  let r =
    match item.body with
    | Item.Dependent { parent; _ } ->
      { r with r_children = Idmap.add r.r_children parent item.id }
    | Item.Independent -> r
    | Item.Relationship -> (
      let state =
        match item.current with
        | Some s -> Some s
        | None -> Item.any_history_state item
      in
      match state with
      | Some (Item.Rel { endpoints; _ }) ->
        {
          r with
          r_rels_of =
            List.fold_left (fun m e -> Idmap.add m e item.id) r.r_rels_of endpoints;
        }
      | Some (Item.Obj _) | None -> r)
  in
  t.working <- r

let replace_state t id new_state =
  match Ident.Map.find_opt id t.working.r_items with
  | None -> ()
  | Some item ->
    let r = root_unindex_state t.working item item.current in
    let item' = Item.with_current item new_state in
    let r =
      {
        r with
        r_items = Ident.Map.add id item' r.r_items;
        r_unflushed = Ident.Set.add id r.r_unflushed;
      }
    in
    t.working <- root_text (root_index_state r item' new_state) item' new_state

let unsafe_put_item t (item : Item.t) =
  (* Replace the stored record without any index maintenance — test
     support for tampering with an item behind the API's back. *)
  let r = t.working in
  t.working <-
    {
      r with
      r_items = Ident.Map.add item.Item.id item r.r_items;
      r_unflushed = Ident.Set.add item.Item.id r.r_unflushed;
    }

(* Whether [b] stores a different record than [a]. [Item.with_current]
   always allocates, so states are compared by value: a branch switch
   re-resolving an unchanged state must not re-flush it. *)
let record_changed (a : Item.t) (b : Item.t) =
  a != b
  && (a.Item.dirty <> b.Item.dirty
     || a.Item.history != b.Item.history
     || not (a.Item.current == b.Item.current || a.Item.current = b.Item.current))

let map_items t f =
  let r = t.working in
  let unflushed = ref r.r_unflushed in
  let items =
    Ident.Map.mapi
      (fun id it ->
        let it' = f it in
        if record_changed it it' then unflushed := Ident.Set.add id !unflushed;
        it')
      r.r_items
  in
  t.working <- { r with r_items = items; r_unflushed = !unflushed }

(* ------------------------------------------------------------------ *)
(* The delta set                                                        *)
(* ------------------------------------------------------------------ *)

let mark_dirty t (item : Item.t) =
  match Ident.Map.find_opt item.Item.id t.working.r_items with
  | Some it when not it.Item.dirty ->
    t.working <-
      {
        t.working with
        r_items = Ident.Map.add it.Item.id (Item.with_dirty it true) t.working.r_items;
        r_dirty = Ident.Set.add it.Item.id t.working.r_dirty;
        r_unflushed = Ident.Set.add it.Item.id t.working.r_unflushed;
      }
  | Some _ | None -> ()

let dirty_ids t = Ident.Set.elements t.working.r_dirty

let clear_dirty t =
  let r = t.working in
  let items, unflushed =
    Ident.Set.fold
      (fun id ((m, u) as acc) ->
        match Ident.Map.find_opt id m with
        | Some it when it.Item.dirty ->
          (Ident.Map.add id (Item.with_dirty it false) m, Ident.Set.add id u)
        | Some _ | None -> acc)
      r.r_dirty (r.r_items, r.r_unflushed)
  in
  t.working <-
    { r with r_items = items; r_dirty = Ident.Set.empty; r_unflushed = unflushed }

let rebuild_dirty t =
  let r = t.working in
  let dirty =
    Ident.Map.fold
      (fun id it acc -> if it.Item.dirty then Ident.Set.add id acc else acc)
      r.r_items Ident.Set.empty
  in
  t.working <- { r with r_dirty = dirty }

let stamp_dirty t vid =
  let r = t.working in
  let count = ref 0 in
  let items, unflushed =
    Ident.Set.fold
      (fun id ((m, u) as acc) ->
        match Ident.Map.find_opt id m with
        | Some it when it.Item.dirty ->
          incr count;
          (Ident.Map.add id (Item.stamp it vid) m, Ident.Set.add id u)
        | Some _ | None -> acc)
      r.r_dirty (r.r_items, r.r_unflushed)
  in
  t.working <-
    { r with r_items = items; r_dirty = Ident.Set.empty; r_unflushed = unflushed };
  !count

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

(* ------------------------------------------------------------------ *)
(* Identity indexes                                                     *)
(* ------------------------------------------------------------------ *)

let children_set t id = Idmap.get t.working.r_children id
let rels_set t id = Idmap.get t.working.r_rels_of id
let inheritor_set t id = Idmap.get t.working.r_inheritors id

let index_inheritor t ~pattern ~inheritor =
  t.working <-
    { t.working with r_inheritors = Idmap.add t.working.r_inheritors pattern inheritor }

let unindex_inheritor t ~pattern ~inheritor =
  t.working <-
    {
      t.working with
      r_inheritors = Idmap.remove t.working.r_inheritors pattern inheritor;
    }

let find_id_by_name t name = Smap.find_opt name t.working.r_names

let rebuild_state_indexes t =
  let r = t.working in
  let r =
    {
      r with
      r_names = Smap.empty;
      r_inheritors = Idmap.empty;
      r_obj_extent = Smap.empty;
      r_pattern_extent = Smap.empty;
      r_rel_extent = Smap.empty;
      r_rel_pattern_extent = Smap.empty;
      r_dependent_extent = Ident.Set.empty;
      (* rebuilt in one pass, preserving enabledness *)
      r_text = Option.map (fun _ -> build_text_index r.r_items) r.r_text;
    }
  in
  let r =
    Ident.Map.fold
      (fun _ it r ->
        let r = root_index_state r it it.Item.current in
        match (it.Item.body, it.Item.current) with
        | Item.Independent, Some (Item.Obj o) when not o.Item.deleted ->
          List.fold_left
            (fun r p -> { r with r_inheritors = Idmap.add r.r_inheritors p it.Item.id })
            r o.Item.inherits
        | _ -> r)
      r.r_items r
  in
  t.working <- r

(* ------------------------------------------------------------------ *)
(* Materialized version views                                           *)
(*                                                                      *)
(* A version's view is a pure function of the item histories and the    *)
(* version tree, both of which change only at well-known points: a new  *)
(* snapshot stamps a {e fresh} label (never a cached one — labels are   *)
(* never reused), version deletion is leaf-only and drops exactly that  *)
(* label's stamps, and a load rebuilds the whole state. A cached extent *)
(* therefore stays valid until its own version is deleted; the cache is *)
(* invalidated per label on delete and starts empty after load/restore  *)
(* (and in every frozen handle — the cache is private to its handle, so *)
(* reader domains never contend on it). Capacity is configurable        *)
(* ({!set_version_cache_capacity}); 0 disables materialization and      *)
(* readers fall back to the resolution scan.                            *)
(* ------------------------------------------------------------------ *)

let sorted_ids l =
  let a = Array.of_list l in
  Array.sort Ident.compare a;
  (* dedupe in place: build sweeps each item once so duplicates should
     not occur, but the extent promises a set *)
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for i = 1 to n - 1 do
      if not (Ident.equal a.(i) a.(!w - 1)) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let finalize_id_lists src =
  let dst = Hashtbl.create (Hashtbl.length src) in
  Hashtbl.iter (fun k l -> Hashtbl.replace dst k (sorted_ids l)) src;
  dst

let ve_push tbl key id =
  Hashtbl.replace tbl key
    (id :: (match Hashtbl.find_opt tbl key with Some l -> l | None -> []))

let build_version_extent t vid =
  let obj = Hashtbl.create 16 in
  let pattern = Hashtbl.create 4 in
  let rel = Hashtbl.create 16 in
  let names = Hashtbl.create 64 in
  let states = Ident.Tbl.create 256 in
  let versions = t.working.r_versions in
  iter_items t (fun it ->
      match Versioning.state_at versions it vid with
      | None -> ()
      | Some s ->
        Ident.Tbl.replace states it.Item.id s;
        if not (Item.state_deleted s) then begin
          match (it.Item.body, s) with
          | Item.Independent, Item.Obj o ->
            let tbl = if o.Item.pattern then pattern else obj in
            ve_push tbl o.Item.cls it.Item.id;
            (match o.Item.name with
            | Some n -> Hashtbl.replace names n it.Item.id
            | None -> ())
          | Item.Relationship, Item.Rel r when not r.Item.rel_pattern ->
            ve_push rel r.Item.assoc it.Item.id
          | _ -> ()
        end);
  {
    ve_obj = finalize_id_lists obj;
    ve_pattern = finalize_id_lists pattern;
    ve_rel = finalize_id_lists rel;
    ve_names = names;
    ve_states = states;
    ve_text = None;
    ve_tick = 0;
  }

let evict_version_lru t =
  let victim =
    Hashtbl.fold
      (fun vid ve acc ->
        match acc with
        | Some (_, best) when best <= ve.ve_tick -> acc
        | _ -> Some (vid, ve.ve_tick))
      t.version_cache None
  in
  match victim with
  | Some (vid, _) ->
    Hashtbl.remove t.version_cache vid;
    t.vc_eviction_count <- t.vc_eviction_count + 1
  | None -> ()

let version_extent t vid =
  if
    t.version_cache_capacity <= 0
    || not (Versioning.mem t.working.r_versions vid)
  then None
  else begin
    t.version_cache_tick <- t.version_cache_tick + 1;
    match Hashtbl.find_opt t.version_cache vid with
    | Some ve ->
      ve.ve_tick <- t.version_cache_tick;
      t.vc_hit_count <- t.vc_hit_count + 1;
      Some ve
    | None ->
      t.vc_miss_count <- t.vc_miss_count + 1;
      let ve = build_version_extent t vid in
      ve.ve_tick <- t.version_cache_tick;
      Hashtbl.replace t.version_cache vid ve;
      while Hashtbl.length t.version_cache > t.version_cache_capacity do
        evict_version_lru t
      done;
      Some ve
  end

let cached_version_extent t vid = Hashtbl.find_opt t.version_cache vid

let invalidate_version_cache t vid = Hashtbl.remove t.version_cache vid
let clear_version_cache t = Hashtbl.reset t.version_cache

let set_version_cache_capacity t n =
  t.version_cache_capacity <- max 0 n;
  while Hashtbl.length t.version_cache > t.version_cache_capacity do
    evict_version_lru t
  done

let version_cache_stats t =
  {
    vc_hits = t.vc_hit_count;
    vc_misses = t.vc_miss_count;
    vc_evictions = t.vc_eviction_count;
  }

let ve_set tbl key =
  Option.fold ~none:Ident.Set.empty ~some:(fun a -> Ident.Set.of_list (Array.to_list a))
    (Hashtbl.find_opt tbl key)

let ve_all_ids tbl =
  Hashtbl.fold (fun _ a acc -> Array.fold_left (fun acc id -> id :: acc) acc a) tbl []

let ve_obj_set ve cls = ve_set ve.ve_obj cls
let ve_rel_set ve assoc = ve_set ve.ve_rel assoc
let ve_all_obj_ids ve = ve_all_ids ve.ve_obj
let ve_all_pattern_ids ve = ve_all_ids ve.ve_pattern
let ve_all_rel_ids ve = ve_all_ids ve.ve_rel

let ve_find_name ve name = Hashtbl.find_opt ve.ve_names name
let ve_state ve id = Ident.Tbl.find_opt ve.ve_states id

(* ------------------------------------------------------------------ *)
(* Text index                                                           *)
(*                                                                      *)
(* The trigram index lives in the root next to the extents and is       *)
(* maintained beside them ([root_text] in [add_item] and                *)
(* [replace_state]), so every state replacement —                       *)
(* create, value update, logical delete, re-classification, rollback by *)
(* root swap — keeps it exact, and [rebuild_state_indexes] builds it in *)
(* one pass on branch switch and load. Version views get their own      *)
(* frozen index, built lazily from the materialized states and cached   *)
(* on the version extent (handle-private, like the extent itself).      *)
(* ------------------------------------------------------------------ *)

let text_index t = t.working.r_text
let text_index_enabled t = t.working.r_text <> None

let rebuilt_text_index t = build_text_index t.working.r_items

let set_text_index_enabled t on =
  match (t.working.r_text, on) with
  | Some _, true | None, false -> ()
  | Some _, false -> t.working <- { t.working with r_text = None }
  | None, true ->
    t.working <-
      { t.working with r_text = Some (build_text_index t.working.r_items) }

let text_stats t = Option.map Text_index.stats t.working.r_text
let note_text_hit t = t.text_hit_count <- t.text_hit_count + 1
let note_text_fallback t = t.text_fallback_count <- t.text_fallback_count + 1
let text_counters t = (t.text_hit_count, t.text_fallback_count)

let ve_text_index ve =
  match ve.ve_text with
  | Some tx -> tx
  | None ->
    (* mirror [text_doc_of_state]: any item holding an [Obj] state has a
       non-relationship body, so the body check is implied here *)
    let doc id s acc =
      match s with
      | Item.Obj { deleted = false; value = Some (Value.String str); cls; _ } ->
        (id, cls, str) :: acc
      | Item.Obj _ | Item.Rel _ -> acc
    in
    (* ids are distinct, so [compare] orders by id alone *)
    let tx = Text_index.of_docs (List.sort compare (Ident.Tbl.fold doc ve.ve_states [])) in
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

let proc_depth t = t.proc_depth
let set_proc_depth t d = t.proc_depth <- d
let transition_rules t = t.transition_rules
let set_transition_rules t l = t.transition_rules <- l

let schema_at_revision t rev = List.assoc_opt rev t.working.r_schemas
