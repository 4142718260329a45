(** Data items: objects, dependent sub-objects, and relationships.

    An item separates {e identity} — allocated once, immutable — from
    {e state} — everything an update can change, and therefore
    everything a version snapshot must capture. Logical deletion is a
    state whose [deleted] flag is set, never physical removal, which is
    what makes SEED's delta-based version storage possible (paper,
    §Versions: "items that have been deleted ... is made easy by marking
    items as deleted instead of removing them physically"). *)

open Seed_util
open Seed_schema

type state =
  | Absent
      (** the item does not exist in this state of the database: it was
          created on another branch, or after the version read *)
  | Obj of {
      name : string option;
          (** independent objects only; dependent names are composed *)
      cls : string;
          (** top-level class (independent) or resolved class path such as
              ["Data.Text.Body"] (dependent); changes on re-classification *)
      value : Value.t option;  (** leaf content *)
      pattern : bool;  (** pattern items are invisible to normal retrieval *)
      inherits : Ident.t list;
          (** patterns this object inherits, in inheritance order *)
      deleted : bool;
    }
  | Rel of {
      assoc : string;  (** association name; changes on re-classification *)
      endpoints : Ident.t list;
          (** positional: element [i] plays role [i] of the association *)
      rel_attrs : (string * Value.t) list;
          (** relationship attributes (Fig. 3's [NumberOfWrites]); undefined
              attributes are simply absent *)
      rel_pattern : bool;
      rel_deleted : bool;
    }
(** An item's state in one state of the database. [Obj] and [Rel] hold
    their fields inline, in the constructor's own block, so a present
    state is one block and an absent one no block at all; a matched
    record is read or copied ([{ o with … }]) where it is matched, never
    passed on by itself. *)

type body =
  | Independent
  | Dependent of { parent : Ident.t; role : string; index : int option }
  | Relationship

type t = {
  id : Ident.t;
  body : body;
  current : state;
      (** working state; [Absent] when the item does not exist in the
          current alternative (it was created on another branch) *)
  history : state Version_id.Map.t;
      (** version stamps keyed by version label, so resolving one stamp
          is a map lookup instead of an assoc-list walk; never [Absent];
          grow-only except for version deletion *)
}
(** Items are immutable values: an update replaces the item in the
    database root with a copy carrying the new state, so any pinned
    snapshot of an older root keeps seeing the unmodified item. *)

val make : Ident.t -> body -> state -> t
(** Fresh item with the given initial current state and no stamps.
    Whether it belongs to the next version's delta is the root's
    business: {!Db_state.add_item} enters it there. *)

val none : t
(** The item a fetch by id returns when no item has the id
    ([Item_table.get]): an [Absent] relationship no table holds, told
    apart by physical equality, so a miss boxes nothing. Its id,
    [max_int], is above every stored item's (a snapshot refuses it), so
    it sorts after them. *)

val with_current : t -> state -> t
(** Copy with a different working state. *)

val state_deleted : state -> bool
val state_pattern : state -> bool
(** [false] for [Absent]. *)

val state_live : state -> bool
(** Present and not deleted. *)

val component : t -> string
(** A dependent item's own name component, [role] or [role\[i\]] (see
    {!Seed_util.Path}); ["?"] for objects and relationships. *)

val stamp_at : t -> Version_id.t -> state
(** The state stamped exactly at the given version, [Absent] if none. *)

val stamp : t -> Version_id.t -> t
(** Copy with the current state recorded under [vid] ([t] itself when
    the item is [Absent]). *)

val drop_stamp : t -> Version_id.t -> t
(** Copy without the stamp for a deleted version ([t] itself when the
    stamp is absent). *)

val history_is_empty : t -> bool

val history_bindings : t -> (Version_id.t * state) list
(** All stamps, ordered by version label (canonical order for
    serialization; creation order requires the version tree's [seq]). *)

val history_of_bindings : (Version_id.t * state) list -> state Version_id.Map.t
(** Rebuild a history map from serialized bindings (any order). *)

val history_exists : (state -> bool) -> t -> bool
(** Some stamp satisfies the predicate. *)
