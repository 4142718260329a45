(** Copy-on-write database state: item table, indexes, class/association
    extents, the version tree, and the attached-procedure registry.

    This module is the engine room — it performs no semantic checking.
    {!Database} is the checked operational interface; {!Consistency} and
    {!Completeness} read through these accessors.

    The data lives in an immutable {!root} of persistent maps; a handle
    ([t]) carries a mutable {e working} root plus an atomically
    {e published} root. Mutators replace the working root (sharing all
    untouched branches with the previous one); {!publish} makes it the
    published root with a single atomic store. {!freeze} grabs the
    published root into a read-only handle in O(1) — the basis of
    {!Database.snapshot_view} and lock-free multi-domain readers:
    nothing reachable from a published root is ever mutated.

    Beyond the identity-level indexes, the root maintains {e extents}:
    per-class and per-association sets of the items whose current state
    is live in that class or association. They are maintained
    incrementally on create, delete, re-classify, and rollback, and give
    the {!Query} planner its candidate sets without a full item scan.
    A saved version's view carries an extents record of the same kind,
    built by the same membership rule. *)

open Seed_util
open Seed_schema

type root
(** An immutable, internally consistent state of the whole database.
    Cheap to retain: two roots share every branch they did not change. *)

type t
(** A state handle: working/published roots plus handle-private caches
    and registries. Writer handles mutate and publish; frozen handles
    (from {!freeze}) are pinned to one published root and are safe to
    read from any domain. *)

type proc = t -> Event.t -> (unit, Seed_error.t) result
(** An attached procedure: called after the mutation it observes; an
    [Error] vetoes and rolls back the update. *)

type extents
(** The live-membership indexes of one state — see the {e Extents}
    section. *)

type version_extent
(** A materialized view of one saved version — see the
    {e Materialized version views} section. *)

type version_cache_stats = {
  vc_hits : int;
  vc_misses : int;  (** misses = extent builds (reconstruction sweeps) *)
  vc_evictions : int;
}

val create : Schema.t -> t

(** {1 Roots, publication, snapshots} *)

val root : t -> root
(** The working root — every accessor below reads from it. *)

val set_root : t -> root -> unit
(** Replace the working root (op-level rollback: restoring the root
    captured before the op undoes {e everything} the op did). *)

val publish : t -> unit
(** Make the working root the published root (one atomic store) and
    count a commit. No-op while a transaction is open — readers never
    observe uncommitted intermediate states. Also forces the schema's
    memoized closures so reader domains never race on [Lazy.force]. *)

val freeze : t -> t
(** O(1): a read-only handle pinned to the currently published root,
    with its own private version cache — safe to hand to another
    domain. Counts a snapshot grab. *)

val snapshot_grabs : t -> int
(** Snapshots grabbed via {!freeze} over the handle's lifetime (shared
    with its frozen handles). *)

val commits_published : t -> int
(** Roots published via {!publish} (op and transaction commits). *)

val set_write_stats_source :
  t -> (unit -> Seed_storage.Commit_daemon.stats) -> unit
(** Registered by the durable session layer: a thunk yielding the
    store's group-commit counters, so {!Database.stats} can report the
    write path without this layer holding a store. *)

val write_stats : t -> Seed_storage.Commit_daemon.stats option
(** Group-commit counters of the attached store; [None] when the
    database has no durable session. *)

val begin_txn : t -> unit
(** Pin the working root as the transaction savepoint; {!publish}
    becomes a no-op until commit/rollback. *)

val commit_txn : t -> unit
(** Drop the savepoint and publish the working root. *)

val rollback_txn : t -> unit
(** Restore the working root to the savepoint — O(1), nothing to
    replay. *)

val txn_active : t -> bool

(** {1 Root fields} *)

val schema : t -> Schema.t
val set_schema : t -> Schema.t -> unit

val schemas : t -> (int * Schema.t) list
(** Every schema revision ever in force, newest first — schema versions
    in the sense of the paper. *)

val set_schemas : t -> (int * Schema.t) list -> unit
val versions : t -> Versioning.t
val set_versions : t -> Versioning.t -> unit

val current_base : t -> Version_id.t option
(** The saved version the current state derives from. *)

val set_current_base : t -> Version_id.t option -> unit

val retrieval_version : t -> Version_id.t option
(** The version retrieval operations read from; [None] = current. *)

val set_retrieval_version : t -> Version_id.t option -> unit
val gen : t -> Ident.Gen.t

val find_item : t -> Ident.t -> Item.t option
val find_item_res : t -> Ident.t -> (Item.t, Seed_error.t) result
val item_count : t -> int

val fresh_id : t -> Ident.t

(** {1 Item mutation}

    Each of these replaces the working root with one reflecting the
    change; none publishes. *)

val add_item : t -> Item.t -> unit
(** Insert into the item table and all identity-level indexes, the
    extent of its current state, and the name index when applicable. *)

val replace_state : t -> Ident.t -> Item.state option -> unit
(** Overwrite the item's current state, maintaining the name index and
    all extents (the old state is unindexed, the new one indexed).
    Does not touch the dirty flag — callers {!mark_dirty}. *)

val unsafe_put_item : t -> Item.t -> unit
(** Replace the stored record with {e no} index maintenance — test
    support for tampering with an item behind the API's back. *)

val map_items : t -> (Item.t -> Item.t) -> unit
(** Replace every item by [f item] (branch switch); callers rebuild the
    indexes with {!load} afterwards. Only items whose record actually
    changed enter the {!unflushed} set. *)

(** {1 Extents}

    One record per state: the current root keeps one up to date, and
    each materialized version view ({!ve_extents}) holds one built from
    that version's resolved states by the same rule. Sets are the
    record's own (no copy); lists are in unspecified order. *)

val extents : t -> extents
(** The current state's extents. *)

val obj_extent : extents -> string -> Ident.Set.t
(** Live normal independent objects classified exactly in this class. *)

val rel_extent : extents -> string -> Ident.Set.t
(** Live normal relationships of exactly this association. *)

val fold_obj_extents : extents -> (Ident.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every class's {!obj_extent}: the live normal independent
    objects. *)

val all_pattern_extent_ids : extents -> Ident.t list
val all_rel_extent_ids : extents -> Ident.t list

val live_object_count : extents -> int
val live_pattern_count : extents -> int
val live_rel_count : extents -> int
val live_dependent_count : extents -> int
(** Sizes of the extent groups, without building a list: live normal
    independent objects, patterns, normal relationships and
    sub-objects. *)

val fold_live_ids : extents -> (Ident.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every live item (all five extent groups) without building
    a list: independent objects, patterns, relationships, pattern
    relationships, then sub-objects, each in increasing id order. *)

val find_id_by_name : extents -> string -> Ident.t option
(** The live independent object (patterns included) of that name. *)

(** {1 The delta set} *)

val mark_dirty : t -> Item.t -> unit
(** Add to the delta set for the next version snapshot (sets the
    per-item flag). *)

val clear_dirty : t -> unit
(** Reset all dirty flags and the set (after a branch switch). *)

val dirty_ids : t -> Ident.t list

val stamp_dirty : t -> Version_id.t -> int
(** Stamp every dirty item's current state under [vid], clearing flags
    and the set; returns the number of items stamped — the delta. *)

val drop_version_stamps : t -> Version_id.t -> unit
(** Remove every item's stamp for a deleted version. *)

(** {1 The unflushed set}

    The ids whose stored record — current state, dirty flag or history
    — changed since the last durable flush. Every mutator above keeps
    it; items loaded from storage are not in it. It lives in the root,
    so a rollback ({!set_root}, a transaction rollback) restores it
    with the records. *)

val unflushed : t -> Ident.Set.t

val clear_unflushed : t -> unit
(** Empty the set: call only once the records are durable. *)

(** {1 Identity indexes}

    The root's own sets, over every item ever indexed, live or not. *)

val children_set : t -> Ident.t -> Ident.Set.t
val rels_set : t -> Ident.t -> Ident.Set.t
val inheritor_set : t -> Ident.t -> Ident.Set.t

val index_inheritor : t -> pattern:Ident.t -> inheritor:Ident.t -> unit
val unindex_inheritor : t -> pattern:Ident.t -> inheritor:Ident.t -> unit

val load : t -> ((Item.t -> unit) -> unit) -> unit
(** [load t feed] rebuilds the working root in one pass over the items
    [feed add] passes to [add] in strictly increasing id order: item
    table, identity indexes (a relationship existing only in history by
    its historical endpoints), extents, inheritor, text and delta sets,
    id generator; the unflushed set is kept. Open loads a fresh handle
    from storage; a branch switch re-feeds the switched table
    ({!iter_items}), leaving the version cache valid. *)

(** {1 Materialized version views}

    Reads against a saved version resolve every item through its
    ancestor chain; a {!version_extent} materializes the whole view
    once — its {!extents}, all resolved states and its schema
    revision — so subsequent reads are lookups. Extents live in an LRU
    cache of 8 keyed by version label, private to the handle (frozen
    handles build their own).
    Validity: snapshot labels are never reused, version deletion is
    leaf-only, so a cached extent can only be invalidated by deleting
    its own version ({!invalidate_version_cache}) or replacing the
    whole state (load — the fresh state starts with an empty cache). *)

val version_extent : t -> Version_id.t -> version_extent
(** The materialized view of a version, built on first access (one
    sweep over the item table) and served from the cache after, each
    access counting a hit or a miss. An unknown label yields an empty
    view that is neither cached nor counted: the label may be created
    later. *)

val invalidate_version_cache : t -> Version_id.t -> unit
(** Drop one version's extent (called when the version is deleted). *)

val version_cache_stats : t -> version_cache_stats

val ve_extents : version_extent -> extents

val ve_schema : version_extent -> Schema.t
(** The schema revision in force for that version (the current schema
    for an unknown label). *)

val ve_state : version_extent -> Ident.t -> Item.state option
(** The item's resolved state in that version ([None] = does not
    exist there). *)

(** {1 Text index}

    A {!Text_index.t} rides in the root next to the extents, maintained
    beside them: every current-state replacement — create, value
    update, logical delete (cascade included), re-classification, and
    rollback by root swap — keeps it exact over the live object states
    carrying string values, and {!load} rebuilds it in one pass on
    branch switch and open. Being persistent, it is frozen
    for free in every published root and MVCC snapshot. *)

val text_index : t -> Text_index.t option
(** The current state's trigram index; [None] when disabled — the
    planner falls back to scans. *)

val text_index_enabled : t -> bool

val set_text_index_enabled : t -> bool -> unit
(** Disabling drops the index from the working root; re-enabling
    rebuilds it from the item table in one sweep. *)

val rebuilt_text_index : t -> Text_index.t
(** A from-scratch index over the current item states — what the
    incrementally maintained one must equal (soak invariant). *)

val text_stats : t -> Text_index.stats option

val note_text_queries : t -> hits:int -> fallbacks:int -> unit
(** Count the text predicates of one executed query: [hits] answered
    from the index, [fallbacks] left to the scan (index disabled, or no
    needle long and rare enough). The counters are shared by a handle
    and its frozen handles, so searches served from snapshots count. *)

val text_counters : t -> int * int
(** [(hits, fallbacks)]. *)

val ve_text_index : version_extent -> Text_index.t
(** The trigram index over a materialized version's string values,
    built lazily on first use and cached on the extent — historical
    text queries plan too. *)

(** {1 Registries (handle-level, not part of the root)} *)

val register_procedure : t -> string -> proc -> unit

val find_procedure : t -> string -> (proc, Seed_error.t) result

val proc_depth : t -> int
val set_proc_depth : t -> int -> unit

val transition_rules :
  t ->
  (string * (t -> base:Version_id.t option -> (unit, Seed_error.t) result)) list

val set_transition_rules :
  t ->
  (string * (t -> base:Version_id.t option -> (unit, Seed_error.t) result)) list ->
  unit

val schema_at_revision : t -> int -> Schema.t option
(** The schema that was in force at a given revision. *)

val iter_items : t -> (Item.t -> unit) -> unit

val fold_items : t -> init:'a -> f:('a -> Item.t -> 'a) -> 'a
(** Items in increasing id order, as {!iter_items} visits them. *)
