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

(* The live-membership indexes of one state — the current root's, kept
   up incrementally, or a saved version's, built once. [x_obj cls] holds
   the live normal independent objects classified [cls], [x_pattern cls]
   the live pattern objects, [x_rel assoc] and [x_rel_pattern assoc] the
   live (pattern) relationships, [x_dependent] the live sub-objects, and
   [x_names] the live named independents (patterns included). *)
type extents = {
  x_obj : Ident.Set.t Smap.t;
  x_pattern : Ident.Set.t Smap.t;
  x_rel : Ident.Set.t Smap.t;
  x_rel_pattern : Ident.Set.t Smap.t;
  x_dependent : Ident.Set.t;
  x_names : Ident.t Smap.t;
}

type root = {
  r_schema : Schema.t;
  r_schemas : (int * Schema.t) list;
  r_items : Item.t Ident.Map.t;
  r_children : Idmap.t;
  r_rels_of : Idmap.t;
  r_inheritors : Idmap.t;
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

type t = {
  mutable working : root;
  published : root Atomic.t;
  mutable depth : int;  (* atomic steps open on this handle *)
  gen : Ident.Gen.t;
  snapshot_count : int Atomic.t;
  commit_count : int Atomic.t;
  (* Handle-private version-extent LRU cache. A frozen handle gets its
     own empty cache, so concurrent readers never share these tables. *)
  version_cache : (Version_id.t, version_extent) Hashtbl.t;
  mutable version_cache_tick : int;
  mutable vc_hit_count : int;
  mutable vc_miss_count : int;
  mutable vc_eviction_count : int;
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
  }

let empty_root schema =
  {
    r_schema = schema;
    r_schemas = [ (Schema.revision schema, schema) ];
    r_items = Ident.Map.empty;
    r_children = Idmap.empty;
    r_rels_of = Idmap.empty;
    r_inheritors = Idmap.empty;
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
    version_cache = Hashtbl.create 8;
    version_cache_tick = 0;
    vc_hit_count = 0;
    vc_miss_count = 0;
    vc_eviction_count = 0;
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
  Schema.prepare t.working.r_schema;
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
    version_cache = Hashtbl.create 8;
    version_cache_tick = 0;
    vc_hit_count = 0;
    vc_miss_count = 0;
    vc_eviction_count = 0;
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

let schema t = t.working.r_schema
let set_schema t s = t.working <- { t.working with r_schema = s }
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
(* Extents                                                              *)
(*                                                                      *)
(* Invariant: an item belongs to exactly the extent matching the state  *)
(* the extents were built from — the current state for the root's, the  *)
(* resolved state for a version's. Deleted and absent states are in no  *)
(* extent. Re-classification moves the item between class extents,      *)
(* deletion drops it, and a pattern flip (never produced today, but     *)
(* handled uniformly) would move it between the normal and pattern      *)
(* maps. [slot] is the one membership rule: [index_state] and          *)
(* [unindex_state] apply it as [replace_state] keeps the root's         *)
(* extents, the wholesale builds fold [index_state] over the item       *)
(* table, and a load routes each item by it ([load]).                   *)
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

(* One wholesale build over the item table, each item at the state
   [state_of] resolves for it: the current state for the root's index, the
   resolved one for a version's. *)
let build_text_index items state_of =
  Text_index.of_docs
    (Seq.fold_left
       (fun acc ((id, it) : Ident.t * Item.t) ->
         match text_doc_of_state it (state_of it) with
         | Some (path, s) -> (id, path, s) :: acc
         | None -> acc)
       [] (Ident.Map.to_rev_seq items))

let current_state (it : Item.t) = it.Item.current

(* The root's text index brought in line with [item] holding [state]: its
   string indexed, or the carrier dropped. *)
let text_of r (item : Item.t) (state : Item.state option) =
  match r.r_text with
  | None -> None
  | Some tx ->
    let tx' =
      match text_doc_of_state item state with
      | Some (path, s) -> Text_index.add_doc tx item.Item.id ~path s
      | None -> Text_index.remove_doc tx item.Item.id
    in
    if tx' == tx then r.r_text else Some tx'

let add_or_remove_id ~add m k id =
  if add then Smap.add_id m k id else Smap.remove_id m k id

(* The one membership rule: the extent [state] puts [item] in, if any.
   Deleted and absent states, and a state that does not fit the body,
   are in none. *)
type slot =
  | Outside
  | Object of { pattern : bool; cls : string; name : string option }
  | Sub_object
  | Relation of { pattern : bool; assoc : string }

let slot (item : Item.t) (state : Item.state option) =
  match (item.Item.body, state) with
  | _, None -> Outside
  | _, Some s when Item.state_deleted s -> Outside
  | Item.Independent, Some (Item.Obj o) ->
    Object { pattern = o.Item.pattern; cls = o.Item.cls; name = o.Item.name }
  | Item.Dependent _, Some (Item.Obj _) -> Sub_object
  | Item.Relationship, Some (Item.Rel rel) ->
    Relation { pattern = rel.Item.rel_pattern; assoc = rel.Item.assoc }
  | (Item.Independent | Item.Dependent _), Some (Item.Rel _)
  | Item.Relationship, Some (Item.Obj _) ->
    Outside

(* Enter ([~add:true]) or drop [state]'s extent membership for [item]. A
   name binding is dropped only while it is still this item's. The text
   index has its own hook ([text_of]): the wholesale rebuild builds
   it in one pass. *)
let membership ~add x (item : Item.t) (state : Item.state option) =
  let id = item.Item.id in
  match slot item state with
  | Outside -> x
  | Object { pattern; cls; name } ->
    let x_names =
      match name with
      | None -> x.x_names
      | Some n when add -> Smap.add n id x.x_names
      | Some n -> (
        match Smap.find_opt n x.x_names with
        | Some bound when Ident.equal bound id -> Smap.remove n x.x_names
        | Some _ | None -> x.x_names)
    in
    if pattern then { x with x_pattern = add_or_remove_id ~add x.x_pattern cls id; x_names }
    else { x with x_obj = add_or_remove_id ~add x.x_obj cls id; x_names }
  | Sub_object ->
    let op = if add then Ident.Set.add else Ident.Set.remove in
    { x with x_dependent = op id x.x_dependent }
  | Relation { pattern; assoc } ->
    if pattern then { x with x_rel_pattern = add_or_remove_id ~add x.x_rel_pattern assoc id }
    else { x with x_rel = add_or_remove_id ~add x.x_rel assoc id }

let index_state x item state = membership ~add:true x item state
let unindex_state x item state = membership ~add:false x item state

(* One wholesale build: [index_state] folded over the item table, each
   item at the state [state_of] resolves for it. *)
let extents_of items state_of =
  Ident.Map.fold (fun _ it x -> index_state x it (state_of it)) items empty_extents

let extents t = t.working.r_ext
let obj_extent x cls = Smap.set x.x_obj cls
let rel_extent x assoc = Smap.set x.x_rel assoc
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

let fold_live_ids x f init =
  let groups m acc = Smap.fold (fun _ s acc -> Ident.Set.fold f s acc) m acc in
  init |> groups x.x_obj |> groups x.x_pattern |> groups x.x_rel
  |> groups x.x_rel_pattern |> Ident.Set.fold f x.x_dependent

(* ------------------------------------------------------------------ *)
(* Item mutation (new roots)                                            *)
(* ------------------------------------------------------------------ *)

(* An item's identity-index entries: under its parent, or under each of
   its endpoints — by the current state, or by a stamped one for a
   relationship that exists only in history. *)
let index_identity (children, rels_of) (item : Item.t) =
  match item.body with
  | Item.Dependent { parent; _ } -> (Idmap.add children parent item.id, rels_of)
  | Item.Independent -> (children, rels_of)
  | Item.Relationship -> (
    let state = match item.current with Some s -> Some s | None -> Item.any_history_state item in
    match state with
    | Some (Item.Rel { endpoints; _ }) ->
      (children, List.fold_left (fun m e -> Idmap.add m e item.id) rels_of endpoints)
    | Some (Item.Obj _) | None -> (children, rels_of))

(* The one single-item writer of the item table: [r]'s table with [item]
   stored, and its unflushed set with [item]'s id — every record it
   stores is one the next flush must write. Its callers build one root
   from the pair. *)
let put r (item : Item.t) =
  (Ident.Map.add item.id item r.r_items, Ident.Set.add item.id r.r_unflushed)

(* The two writers of an item's current state; each enters the item in
   the delta set in the same root update. *)
let add_item t (item : Item.t) =
  let r = t.working in
  let r_items, r_unflushed = put r item in
  let r_children, r_rels_of = index_identity (r.r_children, r.r_rels_of) item in
  t.working <-
    {
      r with
      r_items;
      r_unflushed;
      r_dirty = Ident.Set.add item.id r.r_dirty;
      r_ext = index_state r.r_ext item item.current;
      r_text = text_of r item item.current;
      r_children;
      r_rels_of;
    }

(* A state in the same extent slot (a value update) keeps the extents;
   a rename, reclassification or delete moves the item. *)
let replace_state t id new_state =
  match Ident.Map.find_opt id t.working.r_items with
  | None -> ()
  | Some item ->
    let r = t.working in
    let item' = Item.with_current item (Some new_state) in
    let r_items, r_unflushed = put r item' in
    t.working <-
      {
        r with
        r_items;
        r_unflushed;
        r_dirty = Ident.Set.add id r.r_dirty;
        r_ext =
          (if slot item item.current = slot item' item'.current then r.r_ext
           else index_state (unindex_state r.r_ext item item.current) item' item'.current);
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

(* A set or map grown at its top end, as runs of equal size merged like
   the digits of a binary counter: joining two runs over disjoint ranges
   copies only their facing spines, where one insert per key copies a
   whole search path for each key. Run sizes grow strictly downwards. *)
let rec push_run union (n, x) = function
  | (m, y) :: rest when m = n -> push_run union (n + m, union y x) rest
  | runs -> (n, x) :: runs

let of_runs union empty runs = List.fold_left (fun acc (_, x) -> union x acc) empty runs
let union_disjoint a b = Ident.Map.union (fun _ x _ -> Some x) a b
let push_id id runs = push_run Ident.Set.union (1, Ident.Set.singleton id) runs
let set_of_runs runs = of_runs Ident.Set.union Ident.Set.empty runs

(* One fold over items arriving in increasing id order: the item table
   and every index at once, with no list of the database. Id-keyed sets
   and the table grow as runs; the identity indexes, keyed by parent or
   endpoint, take one persistent insert per item, whose copies die
   young. *)
let load t feed =
  let r = t.working in
  let items = ref [] and dirty = ref [] and dependent = ref [] in
  (* per extent group, the runs of each class or association *)
  let objs = Hashtbl.create 16 and patterns = Hashtbl.create 16 in
  let rels = Hashtbl.create 16 and rel_patterns = Hashtbl.create 16 in
  let extend group key id =
    Hashtbl.replace group key (push_id id (Option.value (Hashtbl.find_opt group key) ~default:[]))
  in
  let identity = ref (Idmap.empty, Idmap.empty) in
  let inheritors = ref Idmap.empty and names = ref Smap.empty in
  feed (fun (it : Item.t) in_delta ->
      let id = it.Item.id in
      items := push_run union_disjoint (1, Ident.Map.singleton id it) !items;
      if in_delta then dirty := push_id id !dirty;
      identity := index_identity !identity it;
      (match slot it it.Item.current with
      | Outside -> ()
      | Object { pattern; cls; name } ->
        Option.iter (fun n -> names := Smap.add n id !names) name;
        extend (if pattern then patterns else objs) cls id;
        (match it.Item.current with
        | Some (Item.Obj o) ->
          List.iter (fun p -> inheritors := Idmap.add !inheritors p id) o.Item.inherits
        | Some (Item.Rel _) | None -> ())
      | Sub_object -> dependent := push_id id !dependent
      | Relation { pattern; assoc } -> extend (if pattern then rel_patterns else rels) assoc id);
      Ident.Gen.mark_used t.gen id);
  let items = of_runs union_disjoint Ident.Map.empty !items in
  let r_children, r_rels_of = !identity in
  let group g = Hashtbl.fold (fun k runs m -> Smap.add k (set_of_runs runs) m) g Smap.empty in
  t.working <-
    {
      r with
      r_items = items;
      r_children;
      r_rels_of;
      r_inheritors = !inheritors;
      r_ext =
        {
          x_obj = group objs;
          x_pattern = group patterns;
          x_rel = group rels;
          x_rel_pattern = group rel_patterns;
          x_dependent = set_of_runs !dependent;
          x_names = !names;
        };
      r_dirty = set_of_runs !dirty;
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
  let states = Ident.Tbl.create (Ident.Map.cardinal r.r_items) in
  let state_at = Versioning.state_at r.r_versions node.Versioning.vid in
  let resolved (it : Item.t) =
    let s = state_at it in
    Option.iter (Ident.Tbl.replace states it.Item.id) s;
    s
  in
  {
    ve_ext = extents_of r.r_items resolved;
    ve_states = states;
    ve_schema =
      Option.value ~default:r.r_schema (schema_at_revision t node.Versioning.schema_rev);
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
  (* only known labels are cached, so a hit needs no tree lookup *)
  match Hashtbl.find_opt t.version_cache vid with
  | Some ve ->
    t.version_cache_tick <- t.version_cache_tick + 1;
    ve.ve_tick <- t.version_cache_tick;
    t.vc_hit_count <- t.vc_hit_count + 1;
    ve
  | None -> (
    match Versioning.find t.working.r_versions vid with
    | None ->
      {
        ve_ext = empty_extents;
        ve_states = Ident.Tbl.create 1;
        ve_schema = t.working.r_schema;
        ve_text = None;
        ve_tick = 0;
      }
    | Some node ->
      t.version_cache_tick <- t.version_cache_tick + 1;
      t.vc_miss_count <- t.vc_miss_count + 1;
      let ve = build_version_extent t node in
    ve.ve_tick <- t.version_cache_tick;
      Hashtbl.replace t.version_cache vid ve;
      if Hashtbl.length t.version_cache > version_cache_capacity then evict_version_lru t;
      ve)

let invalidate_version_cache t vid = Hashtbl.remove t.version_cache vid

let version_cache_stats t =
  {
    vc_hits = t.vc_hit_count;
    vc_misses = t.vc_miss_count;
    vc_evictions = t.vc_eviction_count;
  }

let ve_extents ve = ve.ve_ext
let ve_schema ve = ve.ve_schema
let ve_state ve id = Ident.Tbl.find_opt ve.ve_states id

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
