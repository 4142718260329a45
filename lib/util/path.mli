(** Composed names for hierarchically structured objects and classes.

    The name of a dependent object is composed of the name of its parent
    and of its role in the context of the parent (paper, Fig. 1):
    ['Alarms.Text.Body.Keywords[1]'] denotes the sub-object with role
    [Keywords] and index [1] of the sub-object [Body] of the sub-object
    [Text] of the independent object [Alarms].

    The same syntax (without indices) names classes:
    ['Data.Text.Selector'] is the sub-class [Selector] of sub-class
    [Text] of class [Data]. *)

type component = { name : string; index : int option }
(** One step of a path: a role name plus an optional index. Indices are
    only meaningful for sub-object roles whose class allows more than one
    instance per parent. *)

type t = component list
(** A non-empty list of components; the head is the independent object
    (or top-level class) name. *)

val root : string -> t
(** [root n] is the one-component path [n]. *)

val child : ?index:int -> t -> string -> t
(** [child p role] extends [p] with a component. *)

val parent : t -> t option
(** [parent p] drops the last component; [None] for a root path. *)

val last : t -> component
(** Final component. Raises [Invalid_argument] on the empty list. *)

val basename : t -> string
(** Name of the final component, without index. *)

val depth : t -> int
(** Number of components. *)

val is_root : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val component_to_string : component -> string
(** [role] or [role\[i\]]. *)

val to_string : t -> string
(** Renders as dotted components with [\[i\]] suffixes. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, Seed_error.t) result
(** Parses the dotted syntax. Fails with [Invalid_operation] on empty
    components, malformed indices, or an empty string. *)

val of_string_exn : string -> t
(** Like {!of_string} but raises {!Seed_error.Error}. *)

val strip_indices : t -> string list
(** The role names only — this is the class path a data path instantiates. *)

val class_path_string : t -> string
(** [strip_indices] rendered with dots: the class path denoted by a data
    path. *)

val is_prefix : t -> t -> bool
(** [is_prefix p q] is true iff [q] starts with all of [p]'s components. *)

module Map : Map.S with type key = t
