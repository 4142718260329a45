(** A SEED schema: classes, associations, and generalization structure.

    The schema is immutable; loading data against it happens in
    {!Seed_core}. A schema is built from {!Class_def} and {!Assoc_def}
    values and validated as a whole ({!of_defs}), after which the query
    functions below are total on the names it defines.

    Generalization queries exist in two parallel families — one over
    classes, one over associations — because the paper extends
    generalization from object classes to associations (§Vague data).
    Both families are answered from a memoized transitive-closure cache
    computed lazily per schema value: [class_is_a]/[assoc_is_a] are a
    single hash/set lookup, not a hierarchy walk, and every
    schema-producing function installs a fresh cache so a new schema
    revision can never see stale closures. The same cell memoizes the
    per-class answers every update asks for:
    {!participation_constraints}, the {!resolve_child} chain (each
    class's sub-class definitions by role, own before inherited) and
    the attached procedures ({!class_procedures}, {!assoc_procedures})
    — built once per schema value and shared by the per-update checks
    and the load-time sweep. *)

type t

val revision : t -> int
(** Monotonic schema revision, used by schema versioning. *)

val prepare : t -> unit
(** Force the memoized hierarchy closures. Called by the writer before
    the schema is published to other domains, so concurrent readers
    never race on the underlying [Lazy.force]. *)

val validate : t -> (unit, Seed_util.Seed_error.t) result
(** Whole-schema validation: existence and top-levelness of
    generalization targets, acyclic generalization hierarchies, no
    name clashes among inherited sub-classes, positional role
    compatibility of specialized associations, [ACYCLIC] only on
    binary associations ranging over one class hierarchy, and covering
    conditions having at least one specialization. *)

val of_defs :
  Class_def.t list -> Assoc_def.t list -> (t, Seed_util.Seed_error.t) result
(** [of_defs classes assocs] adds everything and validates. Classes may
    be given in any order provided parents precede children. Adding a
    class checks that its name is fresh and its parent (for sub-classes)
    is already present; global conditions are checked by {!validate}. *)

val of_defs_exn : Class_def.t list -> Assoc_def.t list -> t

val with_revision : t -> int -> t
(** Stamp an explicit revision (used when deriving schema versions).
    The class and association hierarchies are unchanged, so the
    memoized generalization closures are shared with [s] rather than
    recomputed. *)

(** {1 Lookup} *)

val find_class : t -> string -> Class_def.t option
val find_class_res : t -> string -> (Class_def.t, Seed_util.Seed_error.t) result
val find_assoc : t -> string -> Assoc_def.t option
val find_assoc_res : t -> string -> (Assoc_def.t, Seed_util.Seed_error.t) result

val classes : t -> Class_def.t list
(** All classes, sorted by name. *)

val assocs : t -> Assoc_def.t list

val top_level_classes : t -> Class_def.t list

val own_children : t -> string -> Class_def.t list
(** Direct sub-classes of a class (by dotted name). *)

(** {1 Class generalization} *)

val class_supers : t -> string -> string list
(** Proper ancestors, nearest first. [class_supers s "OutputData"] is
    [["Data"; "Thing"]] for the Fig. 3 schema. *)

val class_is_a : t -> sub:string -> super:string -> bool
(** Reflexive: [class_is_a ~sub:c ~super:c] is [true]. *)

val class_descendants_or_self : t -> string -> string list
(** The class and its proper descendants — exactly the classes [c] with
    [class_is_a ~sub:c ~super:n]; the extent of an [is_a] query is the
    union of these classes' extents. *)

val same_class_hierarchy : t -> string -> string -> bool
(** Both classes have the same topmost ancestor (a class without a
    super is its own). *)

(** {1 Association generalization} *)

val assoc_supers : t -> string -> string list
val assoc_is_a : t -> sub:string -> super:string -> bool
val assoc_descendants_or_self : t -> string -> string list
val same_assoc_hierarchy : t -> string -> string -> bool

(** {1 Structure resolution} *)

val resolve_child :
  t -> cls:string -> role:string -> (Class_def.t, Seed_util.Seed_error.t) result
(** [resolve_child s ~cls ~role] finds the sub-class definition for role
    [role] of an object classified in [cls] — searching [cls] itself
    first, then its generalization ancestors (a [Data] object has a
    [Thing.Description] sub-object in the Fig. 3 schema). *)

val effective_children : t -> string -> (string * Class_def.t) list
(** All sub-classes available to instances of a class, own and
    inherited, as [(role_name, definition)] pairs. *)

val resolve_attr :
  t -> assoc:string -> attr:string -> (Assoc_def.attr, Seed_util.Seed_error.t) result
(** Find an attribute declaration for relationships of [assoc] —
    searching the association itself first, then its generalization
    ancestors (a [Write] relationship also carries attributes declared
    on [Access]). *)

val effective_attrs : t -> string -> Assoc_def.attr list
(** All attributes available to relationships of an association, own
    and inherited. *)

val participation_constraints :
  t -> cls:string -> (Assoc_def.t * int * Assoc_def.role) list
(** Every [(assoc, position, role)] whose role target is [cls] or one of
    its generalization ancestors — i.e. every participation bound that
    applies to instances of [cls]. *)

val class_procedures : t -> string -> string list
(** The attached procedures an update of an instance of the class runs,
    in order: those of every prefix of its class path, longest first
    (a sub-object update is also an update of its enclosing composite
    objects), then of the root class's generalization ancestors. For a
    top-level class: its own, then its ancestors'. [[]] for a name
    outside the schema. Memoized per schema, like
    {!participation_constraints}. *)

val assoc_procedures : t -> string -> string list
(** The attached procedures an update of a relationship of the
    association runs: its own, then its ancestors'. Memoized. *)
