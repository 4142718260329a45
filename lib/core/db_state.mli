(** Copy-on-write database state: item table, indexes, class/association
    extents, the version tree, and the attached-procedure registry.

    This module is the engine room — it performs no semantic checking.
    {!Database} is the checked operational interface; {!Consistency} and
    {!Completeness} read through these accessors.

    The data lives in an immutable {e root} of persistent values: the
    item table ({!Item_table}: a base array sorted by id plus an overlay
    map of the items written since), id sets and maps. A handle ([t])
    carries a mutable {e working} root plus an atomically {e published}
    root. Mutators replace the working root (sharing all untouched
    parts with the previous one); the outermost
    {!atomically} step publishes it with a single atomic store. {!freeze} grabs the
    published root into a read-only handle in O(1) — the basis of
    {!Database.snapshot_view} and lock-free multi-domain readers:
    nothing reachable from a published root is ever mutated.

    Beside the item table, the root maintains {e extents}: per-class
    and per-association sets of the items whose current state is live
    in that class or association, and the adjacency of live items —
    sub-objects by parent, relationships by endpoint, inheritors by
    pattern. They are maintained incrementally on create, delete,
    re-classify, (un-)inherit and rollback, and give the {!Query}
    planner and {!View}'s navigation their sets without a full item
    scan. A saved version's view carries an extents record of the same
    kind, built by the same membership rule. *)

open Seed_util
open Seed_schema

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

val publish : t -> unit
(** Make the working root the published root (one atomic store) and
    count a commit. Also forces the schema's memoized closures so
    reader domains never race on [Lazy.force]. Called by {!atomically}
    and by the loader, whose loaded state is the first committed one. *)

val atomically :
  t -> (unit -> ('a, Seed_error.t) result) -> ('a, Seed_error.t) result
(** [atomically t f] runs [f] as one atomic step, the only way an update
    commits. The working root on entry is the savepoint; on [Error] or
    an exception it is restored — O(1), undoing everything [f] did,
    nested steps included — and the result re-reported. Steps nest: an
    attached procedure's update or a transaction's operation runs inside
    its caller's step, and only the outermost step publishes, so
    snapshot readers never observe a state that a step might still
    undo. *)

val depth : t -> int
(** The number of {!atomically} steps open on the handle: 0 between
    updates, at least 1 inside an update, its attached procedures and
    transition rules, or a transaction. *)

val freeze : t -> t
(** O(1) words: a read-only handle pinned to the currently published
    root, with its own private version cache, made when it first reads
    a version — safe to hand to another domain. Counts a snapshot
    grab. *)

val snapshot_grabs : t -> int
(** Snapshots grabbed via {!freeze} over the handle's lifetime (shared
    with its frozen handles). *)

val commits_published : t -> int
(** Roots published via {!publish} (outermost steps, and the load). *)

val set_write_stats_source :
  t -> (unit -> Seed_storage.Commit_daemon.stats) -> unit
(** Registered by the durable session layer: a thunk yielding the
    store's group-commit counters, so {!Database.stats} can report the
    write path without this layer holding a store. *)

val write_stats : t -> Seed_storage.Commit_daemon.stats option
(** Group-commit counters of the attached store; [None] when the
    database has no durable session. *)

(** {1 Root fields} *)

val schema : t -> Schema.t
(** The schema in force: the head of {!schemas}. *)

val schemas : t -> (int * Schema.t) list
(** Every schema revision ever in force, newest first — schema versions
    in the sense of the paper. Never empty. *)

val set_schemas : t -> (int * Schema.t) list -> unit
val versions : t -> Versioning.t
val set_versions : t -> Versioning.t -> unit

val current_base : t -> Version_id.t option
(** The saved version the current state derives from. *)

val set_current_base : t -> Version_id.t option -> unit
(** [set_schemas], [set_versions] and [set_current_base] are the only
    writers of the stored meta's fields. A flush writes a meta record
    when one of them holds another value (by identity) than at the
    last durable flush, so call them only to change the meta. *)

val retrieval_version : t -> Version_id.t option
(** The version retrieval operations read from; [None] = current. *)

val set_retrieval_version : t -> Version_id.t option -> unit
val gen : t -> Ident.Gen.t

val get_item : t -> Ident.t -> Item.t
(** The item of that id, {!Item.none} when there is none: the read
    path's fetch, which boxes nothing for an item of the table's base
    ({!Item_table.get}). *)

val find_item : t -> Ident.t -> Item.t option
val find_item_res : t -> Ident.t -> (Item.t, Seed_error.t) result
val item_count : t -> int
(** O(1): the table keeps its count. *)

val fresh_id : t -> Ident.t

(** {1 Item mutation}

    Each of these replaces the working root with one reflecting the
    change; none publishes. *)

val add_item : t -> Item.t -> unit
(** Insert into the item table, and into the extents of its current
    state (its group, the name index, and its place under its parent,
    endpoints or inherited patterns); the item enters the delta set. *)

val replace_state : t -> Ident.t -> Item.state -> unit
(** Overwrite the item's current state, maintaining all extents (the
    old state is unindexed, the new one indexed, unless both give the
    item the same membership, as a value update does); the item enters
    the delta set. An unknown id is ignored. *)

val unsafe_put_item : t -> Item.t -> unit
(** Replace the stored record with {e no} index maintenance — test
    support for tampering with an item behind the API's back. *)

val map_items : t -> (Item.t -> Item.t) -> unit
(** Replace every item by [f item] (branch switch); callers rebuild the
    indexes with {!load} afterwards. Only items whose record actually
    changed enter the {!unflushed} set. *)

val load : t -> capacity:int -> ((Item.t -> bool -> unit) -> unit) -> unit
(** [load t ~capacity feed] rebuilds the working root from the at most
    [capacity] items [feed add] passes to [add item in_delta] in
    strictly increasing id order: the item table (its base array
    allocated once, for [capacity] items), the delta set (the items fed
    with [in_delta]), the id
    generator (raised to the largest id fed) and the extents (by the
    rule that keeps them incrementally) as they arrive, then the text
    index; the unflushed set is kept. Open
    loads a fresh handle from storage, each item with its stored delta
    byte; a branch switch re-feeds the switched table ({!iter_items})
    with an empty delta, leaving the version cache valid. *)

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

val children_of : extents -> Ident.t -> Ident.Set.t
(** The live sub-objects whose parent is the given item. *)

val rels_of : extents -> Ident.t -> Ident.Set.t
(** The live relationships, patterns included, with the given item
    among their endpoints. *)

val inheritors_of : extents -> Ident.t -> Ident.Set.t
(** The live independent objects, patterns included, that directly
    inherit the given pattern. *)

(** {1 The delta set}

    The ids whose current state changed since the last version stamp:
    what the next version stamps. {!add_item} and {!replace_state} are
    its only writers; it is the only record of it (a stored item
    carries its membership, written from the set). *)

val dirty : t -> Ident.Set.t

val clear_dirty : t -> unit
(** Empty the set (after a branch switch); its former members become
    unflushed. *)

val stamp_dirty : t -> Version_id.t -> int
(** Stamp every member's current state under [vid] and empty the set;
    returns the number of items stamped — the delta. *)

val drop_version_stamps : t -> Version_id.t -> unit
(** Remove every item's stamp for a deleted version. *)

(** {1 The unflushed set}

    The ids whose stored record — current state, delta membership or
    history — changed since the last durable flush. Every mutator above keeps
    it; items loaded from storage are not in it. It lives in the root,
    so a rollback ({!atomically}'s savepoint swap) restores it with the
    records. *)

val unflushed : t -> Ident.Set.t

val clear_unflushed : t -> unit
(** Empty the set: call only once the records are durable. *)

(** {1 Materialized version views}

    Reads against a saved version resolve every item through its
    ancestor chain; a {!version_extent} materializes the whole view
    once — its {!extents}, all resolved states and its schema
    revision — so subsequent reads are lookups. Extents live in an LRU
    cache of 8 keyed by version label, private to the handle and made
    on its first version read (frozen handles build their own).
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

val ve_state : version_extent -> Ident.t -> Item.state
(** The item's resolved state in that version ([Absent] = does not
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

val ve_text_index : t -> version_extent -> Text_index.t
(** The trigram index over a materialized version's string values, built
    lazily on first use by the same sweep as the current state's (each
    item at its resolved state) and cached on the extent — historical
    text queries plan too. *)

(** {1 Registries (handle-level, not part of the root)} *)

val register_procedure : t -> string -> proc -> unit

val find_procedure : t -> string -> (proc, Seed_error.t) result

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
