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

    Each rule is written once, inside the module: an item is live, an
    endpoint fits its role, a sub-object fits its class, a value fits
    its class's content or its attribute's declaration, an object name
    is non-empty and free, children and participations stay within
    their maximum, an edge closes no [ACYCLIC] cycle at any level of its
    association. Every precondition below, and the {!check_database}
    sweep, is a composition of these rules, run in a fixed order: the
    first rule an input breaks is the error reported.

    All functions are pure checks: they never mutate. {!Database} calls
    them before mutating; attached procedures run after, in
    {!Database}. *)

open Seed_util
open Seed_schema

(** {1 Shared with {!Completeness} and {!Database}}

    {!Completeness} counts with the same functions as the maximum
    checks; {!Database} re-validates the contexts a pattern update
    reaches. *)

val count_role : View.vitem list -> role:string -> int
(** Among [kids] — an object's {!View.children_v}, inherited ones
    included — the sub-objects with the given role. *)

val count_participation :
  View.t -> View.vrel list -> Item.t -> assoc:string -> pos:int -> int
(** Among [rels] — the object's {!View.rels_v}, built once for all its
    counts — those of the association or a specialization of it that
    bind the object at role position [pos]. *)

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
  (Class_def.t * int option, Seed_error.t) result
(** Returns the resolved sub-class definition and the new sub-object's
    index: [index] as given, or, for a multi-valued role given none,
    the smallest one no sub-object of the role holds in the expanded
    context. *)

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
