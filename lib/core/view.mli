(** Read access to a database state — current or any saved version —
    with pattern inheritance expanded.

    Retrieval of data from an old version is performed in the same way
    as retrieval from the current version (paper, §Versions): a [View.t]
    fixes the version once; every reader below then resolves item states
    through it.

    Pattern expansion implements the paper's inheritance semantics
    (§Patterns and Variants): retrieval operations view patterns {e as
    if} they were inserted in the context of the inheritors. Inherited
    information is synthesized at query time — nothing is materialized —
    so an update of a pattern automatically propagates to all
    inheritors, and inherited information has no update path of its
    own. *)

open Seed_util
open Seed_schema

type t

val current : Db_state.t -> t
(** The working state ("the current version"). *)

val at : Db_state.t -> Version_id.t -> t
(** The view of a saved version. Its materialized extent
    ({!Db_state.version_extent}) is resolved here, once; every read of
    the view is then a lookup in it. An unknown label reads as empty. *)

val retrieval : Db_state.t -> t
(** The view selected by [Database.select_version] (current by
    default). *)

val version : t -> Version_id.t option
val db : t -> Db_state.t
val schema : t -> Schema.t
(** The schema revision in force for this view's version. *)

val extents : t -> Db_state.extents
(** The view's live-membership indexes: the current root's, or the
    version's materialized ones. *)

val text_index : t -> Text_index.t option
(** The trigram index over the view's string values — the current
    root's, or the version's (built on first use); [None] when text
    indexing is disabled. *)

(** {1 State resolution}

    Items are immutable values: an update replaces an item's record in
    the working root, and a handle fetched before it still holds the
    superseded record. Readers taking an [Item.t] read the handle they
    are given, with no id lookup on a current view, so a handle fetched
    before an update of its item is stale. A writer that reads an item
    after updating it fetches it again ({!state_of_id},
    [Db_state.find_item]). *)

val state : t -> Item.t -> Item.state option
(** The handle's state on a current view; the version's resolved state
    of its id on a version view. *)

val state_of_id : t -> Ident.t -> Item.state option
(** {!state} of the item fetched by id: the one by-id reader. *)

val live : t -> Item.t -> bool
val live_normal : t -> Item.t -> bool
val live_pattern : t -> Item.t -> bool
val obj_state : t -> Item.t -> Item.obj_state option
val rel_state : t -> Item.t -> Item.rel_state option

(** {1 Raw navigation (no pattern expansion)} *)

val find_object : t -> string -> Item.t option
(** Independent object by name, patterns included (callers filter). *)

val children : t -> Ident.t -> Item.t list
(** Live sub-objects, in creation order. *)

val child : t -> Ident.t -> role:string -> ?index:int -> unit -> Item.t option
(** The live sub-object with this role and exactly this index: without
    [index], only an unindexed (single-valued) one — the inverse of the
    component {!full_name} prints. *)

val rels : t -> Ident.t -> Item.t list
(** Live relationships the object takes part in. *)

val inherits_of : t -> Item.t -> Ident.t list
(** Patterns directly inherited by an object. *)

val inheritors_of : t -> Ident.t -> Item.t list
(** Live objects directly inheriting the given pattern. *)

val transitive_patterns : t -> Item.t -> Item.t list
(** Patterns reachable through the inherits relation, cycle-safe,
    nearest first. *)

val full_name : t -> Item.t -> string option
(** Composed name: parent names joined with dots and [\[i\]] indices
    (paper, Fig. 1). [None] when some ancestor is not live. *)

val resolve_name : t -> string -> Item.t option
(** Inverse of {!full_name}: finds an object or sub-object by composed
    name, each component matched by {!child} (a multi-valued role needs
    its index). Does not traverse pattern inheritance. *)

val class_path_of : t -> Item.t -> string option
(** The class (independent) or class path (dependent) of an object. *)

(** {1 Pattern-expanded navigation} *)

type vitem = {
  item : Item.t;  (** the underlying real item *)
  via : (Ident.t * Ident.t) option;
      (** [Some (pattern_root, inheritor)] when the item is viewed through
          pattern inheritance *)
}

type vrel = {
  rel : Item.t;
  endpoints : Ident.t list;  (** with the pattern root substituted *)
  via : (Ident.t * Ident.t) option;
}

val vitem_real : Item.t -> vitem

val vitem_name : t -> vitem -> string option
(** Inherited items are named in the inheritor's context. *)

val children_v : t -> vitem -> vitem list
(** Live sub-objects including inherited ones. On a normal object this
    is what "the object's components" means to every retrieval
    operation. *)

val child_v : t -> vitem -> role:string -> ?index:int -> unit -> vitem option
(** {!child} over {!children_v}: the same component match. *)

val rels_v : t -> Item.t -> vrel list
(** Relationships of an object including inherited pattern
    relationships, with this object substituted for the pattern root.
    Virtual relationships that still reference an unsubstituted pattern
    endpoint are suppressed (they are not yet "in a normal context"). *)

val all_objects : t -> Item.t list
(** Live independent objects, patterns excluded. *)

val all_patterns : t -> Item.t list
(** Live independent pattern objects. *)

val all_rels : t -> Item.t list
(** Live normal relationships. *)
