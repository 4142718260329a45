(** Consistency checking — performed on {e every} update.

    The paper partitions schema information (§Incomplete data): class and
    association membership, {e maximum} cardinalities, [ACYCLIC]
    conditions and attached procedures are consistency information and
    are enforced permanently; minimum cardinalities and covering
    conditions are completeness information and live in
    {!Completeness}.

    Pattern items are not checked for consistency unless they are
    inherited by a normal data item (paper, §Patterns): structural checks
    (schema-category existence, value types) always apply, but counting
    checks (maximum cardinalities, participation bounds, acyclicity) are
    evaluated in the context of each normal inheritor — at inheritance
    time and again on every pattern update.

    All functions are pure checks: they never mutate. {!Database} calls
    them before (or, for attached procedures, after) mutating. *)

open Seed_util
open Seed_schema

(** {1 Counting helpers (shared with {!Completeness})} *)

val count_children_role : View.t -> View.vitem -> role:string -> int
(** Live sub-objects with the given role, inherited ones included. *)

val count_participation :
  View.t -> View.vrel list -> Item.t -> assoc:string -> pos:int -> int
(** Among [rels] — the object's {!View.rels_v}, built once for all its
    counts — those of the association or a specialization of it that
    bind the object at role position [pos]. *)

val has_normal_context : View.t -> Item.t -> bool
(** True when the item (or the pattern sub-tree it belongs to) is visible
    in some normal object's context — i.e. counting checks apply. Normal
    items trivially qualify; pattern roots qualify iff some transitive
    inheritor is a live normal object. *)

val pattern_root_of : View.t -> Item.t -> Item.t option
(** The independent ancestor of a sub-object ([item] itself when
    independent); [None] for relationships or dangling parents. *)

val normal_inheritor_contexts : View.t -> Item.t -> Item.t list
(** The live normal objects whose expanded context exposes the given
    pattern item — exactly the contexts that must be re-validated when
    that pattern is updated. *)

(** {1 Update preconditions} *)

val check_new_object :
  View.t ->
  cls:string ->
  name:string ->
  (unit, Seed_error.t) result

val check_new_sub_object :
  View.t ->
  parent:Item.t ->
  role:string ->
  index:int option ->
  value:Value.t option ->
  (Class_def.t, Seed_error.t) result
(** Returns the resolved sub-class definition on success. *)

val check_new_relationship :
  View.t ->
  assoc:string ->
  endpoints:Item.t list ->
  pattern:bool ->
  (Assoc_def.t, Seed_error.t) result

val check_set_value :
  View.t -> Item.t -> Value.t option -> (unit, Seed_error.t) result

val check_set_rel_attr :
  View.t -> Item.t -> string -> Value.t option -> (unit, Seed_error.t) result

val check_rename : View.t -> Item.t -> string -> (unit, Seed_error.t) result

val check_reclassify_object :
  View.t -> Item.t -> to_:string -> (unit, Seed_error.t) result

val check_reclassify_rel :
  View.t -> Item.t -> to_:string -> (unit, Seed_error.t) result

val check_inheritance :
  View.t -> pattern:Item.t -> inheritor:Item.t -> (unit, Seed_error.t) result

val check_delete : View.t -> Item.t -> (unit, Seed_error.t) result

val check_inheritor_context : View.t -> Item.t -> (unit, Seed_error.t) result
(** Re-validate one normal object's full context (own + inherited
    children counts, participation bounds, acyclicity) — used after a
    pattern with inheritors is updated. *)

val check_database : View.t -> (unit, Seed_error.t) result
(** Whole-database consistency sweep against the view's schema; used
    when the schema is replaced and after loading from storage. *)
