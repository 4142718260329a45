(** The SEED operational interface.

    SEED has been designed to support the data management tasks of
    software development tools; hence it has an operational interface
    that consists of a set of procedures (paper, §Data manipulation).
    This module is that interface: data creation, update, retrieval by
    name, re-classification, version and pattern management.

    Every update permanently ensures database consistency: the rules
    derivable from the consistency information of the schema are checked
    on each call, and attached procedures may veto, in which case the
    update is rolled back. Completeness is only checked on demand
    ({!completeness_report}).

    Updates always apply to the current version; retrieval reads from
    the version selected with {!select_version} (current by default). *)

open Seed_util
open Seed_schema

type t

val create : Schema.t -> t
(** An empty database under the given schema. *)

val schema : t -> Schema.t

val raw : t -> Db_state.t
(** Engine-room access for sibling modules ({!History}, {!Persist},
    {!Query}); not part of the stable user API. *)

val of_raw : Db_state.t -> t
(** Inverse of {!raw}, used by {!Persist} when rebuilding a database
    from storage; not part of the stable user API. *)

val view : t -> View.t
(** The retrieval view: the selected version, or the current state. *)

val view_current : t -> View.t
val view_at : t -> Version_id.t -> (View.t, Seed_error.t) result

(** {1 Snapshots}

    The database state is copy-on-write: every committed operation
    publishes a new immutable root, and a snapshot is one atomic load
    of the latest published root — O(1), no lock, valid forever.
    Snapshots see only committed state (never the inside of an open
    transaction or a half-applied operation) and are safe to read from
    other domains concurrently with the writer. *)

val snapshot : t -> Db_state.t
(** A frozen handle pinned to the latest committed state. *)

val snapshot_view : t -> View.t
(** [View.current (snapshot db)] — the usual entry point for readers. *)

(** {1 Transactions}

    A transaction pins the pre-transaction root as a savepoint and
    holds back publication until commit: concurrent snapshot readers
    never observe a half-applied batch. Rollback restores the savepoint
    root — O(1), independent of how many operations the transaction
    made (including mutations by attached procedures along the way).
    Transactions do not nest, and version or schema operations
    ({!create_version}, {!begin_alternative}, {!delete_version},
    {!update_schema}) are refused while one is active. *)

val with_transaction :
  t -> (unit -> ('a, Seed_error.t) result) -> ('a, Seed_error.t) result
(** [with_transaction db f] runs [f] atomically. [Ok] keeps and
    publishes every change; [Error] (or an exception) rolls all of them
    back and re-reports. *)

(** {1 Schema evolution} *)

val update_schema : t -> Schema.t -> (unit, Seed_error.t) result
(** Replace the schema. The new schema is validated, the whole current
    state is re-checked against it, and the revision is recorded so
    versions created earlier keep their own schema version (paper:
    "we must generate schema versions, too"). *)

(** {1 Attached procedures} *)

val register_procedure : t -> string -> Db_state.proc -> unit
(** Bind an implementation to a procedure name referenced by the schema.
    Updating an item whose schema element names an unregistered
    procedure fails with [Unknown_procedure]. *)

(** {1 Data creation} *)

val create_object :
  t -> cls:string -> name:string -> ?pattern:bool -> unit ->
  (Ident.t, Seed_error.t) result
(** A new independent object. With [pattern:true] the object is entered
    as a pattern: invisible to normal retrieval and exempt from counting
    checks until inherited. *)

val create_sub_object :
  t ->
  parent:Ident.t ->
  role:string ->
  ?index:int ->
  ?value:Value.t ->
  unit ->
  (Ident.t, Seed_error.t) result
(** A new dependent object. When the role admits several instances and
    no [index] is given, the smallest free index is assigned. Sub-objects
    of a pattern belong to the pattern. *)

val create_relationship :
  t ->
  assoc:string ->
  endpoints:Ident.t list ->
  ?pattern:bool ->
  unit ->
  (Ident.t, Seed_error.t) result
(** A new relationship; [endpoints] are positional (element [i] plays
    role [i]). A relationship involving a pattern object must itself be
    a pattern. *)

val create_relationship_named :
  t ->
  assoc:string ->
  bindings:(string * Ident.t) list ->
  ?pattern:bool ->
  unit ->
  (Ident.t, Seed_error.t) result
(** Same, with endpoints given as [(role_name, object)] pairs. *)

(** {1 Updates} *)

val set_value : t -> Ident.t -> Value.t option -> (unit, Seed_error.t) result

val set_rel_attr :
  t -> Ident.t -> string -> Value.t option -> (unit, Seed_error.t) result
(** Set (or undefine, with [None]) a relationship attribute declared on
    the relationship's association or one of its generalization
    ancestors (Fig. 3's [NumberOfWrites] on [Write]). *)

val rel_attr : t -> Ident.t -> string -> Value.t option
(** Current value of a relationship attribute; [None] when undefined. *)

val rename_object : t -> Ident.t -> string -> (unit, Seed_error.t) result

val reclassify : t -> Ident.t -> to_:string -> (unit, Seed_error.t) result
(** Move an item within its generalization hierarchy — the operation
    that makes vague information more precise (paper, §Vague data), or
    vaguer again (moving up). Works on objects and on relationships. *)

val delete : t -> Ident.t -> (unit, Seed_error.t) result
(** Logical deletion. Deleting an object cascades to its sub-objects and
    to the relationships it takes part in. A pattern with inheritors
    cannot be deleted. *)

(** {1 Patterns} *)

val inherit_pattern :
  t -> pattern:Ident.t -> inheritor:Ident.t -> (unit, Seed_error.t) result
(** Establish the inherits-relationship: retrieval will view the
    pattern's sub-objects and relationships as if they were inserted in
    the inheritor's context. The combined context is consistency-checked
    here, and re-checked on every subsequent pattern update. *)

val uninherit_pattern :
  t -> pattern:Ident.t -> inheritor:Ident.t -> (unit, Seed_error.t) result

(** {1 Versions} *)

val create_version : t -> (Version_id.t, Seed_error.t) result
(** Take a snapshot: stamp every item changed since the previous version
    and return the new version's label. History-sensitive rules (if any)
    are checked first. *)

val select_version : t -> Version_id.t option -> (unit, Seed_error.t) result
(** Choose the version retrieval operations read from; [None] restores
    the current version. *)

val selected_version : t -> Version_id.t option

val current_base : t -> Version_id.t option
(** The saved version the current state derives from. *)

val is_dirty : t -> bool
(** Items changed since the last snapshot exist. *)

val begin_alternative :
  t -> from_:Version_id.t -> ?force:bool -> unit -> (unit, Seed_error.t) result
(** Make a saved version the basis of the current version. Refused while
    unsaved changes exist, unless [force] discards them.

    Label semantics follow RCS: a snapshot taken while based on the
    {e latest trunk} version extends the trunk ([2.0] → [3.0]); a
    snapshot based on any {e historical} version opens a branch
    ([1.0] → [1.1], [1.1] → [1.1.1]) — the paper's alternatives. *)

val delete_version : t -> Version_id.t -> (unit, Seed_error.t) result
(** Versions cannot be modified, except for deletion. Only leaf versions
    that the current state does not derive from can be deleted; their
    stamps are dropped from all items. *)

val versions : t -> Versioning.node list
(** All saved versions in creation order. *)

val version_cache_stats : t -> Db_state.version_cache_stats
(** Counters of the handle's cache of materialized version views (the
    8 most recently used; see {!Db_state.version_extent}). *)

val set_text_index_enabled : t -> bool -> unit
(** Enable or disable the trigram text index behind [Query.contains]
    (enabled by default). Disabling drops it and containment queries
    scan; re-enabling rebuilds it in one sweep over the item table. See
    {!Db_state.text_index}. *)

val text_index_enabled : t -> bool

val add_transition_rule :
  t ->
  string ->
  (Db_state.t -> base:Version_id.t option -> (unit, Seed_error.t) result) ->
  unit
(** Register a history-sensitive consistency rule, evaluated at
    {!create_version} against the current state and its base version. *)

(** {1 Retrieval} *)

val find_object : t -> string -> Ident.t option
(** Independent object by name in the retrieval view; patterns are
    invisible here. *)

val find_pattern : t -> string -> Ident.t option

val resolve : t -> string -> Ident.t option
(** Object or sub-object by composed name (["Alarms.Text.Body"]). *)

val full_name : t -> Ident.t -> string option
val class_of : t -> Ident.t -> string option
val assoc_of : t -> Ident.t -> string option
val get_value : t -> Ident.t -> Value.t option
val is_pattern : t -> Ident.t -> bool
val exists : t -> Ident.t -> bool

val children : t -> Ident.t -> Ident.t list
(** Live sub-objects in the retrieval view, inherited ones excluded
    (use {!View.children_v} for the expanded context). *)

val relationships : t -> Ident.t -> Ident.t list
(** Live relationships (normal, real) of an object. *)

val endpoints : t -> Ident.t -> Ident.t list

val inheritors : t -> Ident.t -> Ident.t list

val object_count : t -> int
(** Live normal independent objects in the retrieval view. *)

type stats = {
  st_objects : int;  (** live normal independent objects *)
  st_sub_objects : int;
  st_relationships : int;
  st_patterns : int;
  st_versions : int;
  st_items_total : int;  (** physical items, history included *)
  st_dirty : int;  (** changed since the last snapshot *)
  st_schema_revision : int;
  st_vc_hits : int;  (** materialized version view cache hits *)
  st_vc_misses : int;  (** misses = extent builds (reconstruction sweeps) *)
  st_vc_evictions : int;
  st_text_enabled : bool;
  st_text_trigrams : int;  (** distinct trigrams in the text index *)
  st_text_postings : int;  (** posting entries (carrier per trigram) *)
  st_text_docs : int;  (** indexed string values *)
  st_text_bytes : int;  (** rough resident-size estimate *)
  st_text_hits : int;
      (** text predicates of executed queries answered from the index
          ({!Query.explain} counts none) *)
  st_text_fallbacks : int;
      (** text predicates of executed queries that had to scan *)
  st_snapshots : int;  (** snapshot roots grabbed via {!snapshot} *)
  st_commits : int;  (** roots published (op and transaction commits) *)
  st_durable : bool;  (** a durable session's store is attached *)
  st_txns_submitted : int;
      (** transactions through the store's group-commit daemon *)
  st_txn_batches : int;  (** physical journal writes those coalesced into *)
  st_txn_fsyncs : int;  (** fsyncs performed for them *)
  st_txn_max_batch : int;  (** most transactions coalesced into one write *)
  st_txn_queue_hwm : int;  (** commit-daemon queue depth high-water *)
}

val stats : t -> stats
(** Size and state summary of the retrieval view / current state. The
    [st_txn_*] write-path counters come from the store attached by
    {!Persist.Session} (zero without one). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Completeness} *)

val completeness_report : t -> Completeness.diagnostic list
(** Check the rules derivable from the completeness conditions in the
    schema, over the retrieval view. *)

val is_complete : t -> bool
