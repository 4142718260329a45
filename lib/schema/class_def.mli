(** Definition of an object class.

    A class is either {e top-level} (an independent object class such as
    [Data], possibly part of a generalization hierarchy via [super]) or a
    {e dependent sub-class} (such as [Data.Text.Body]) identified by the
    path of role names from its top-level ancestor.

    Fig. 2 of the paper: [Data] is a hierarchically structured class with
    sub-class [Data.Text] of cardinality [0..16], which in turn has
    sub-classes [Body] and [Selector]; [Selector] has [STRING]
    instances. *)

type t = {
  path : string list;  (** non-empty role-name path; singleton = top-level *)
  card : Cardinality.t;
      (** instances per parent object; meaningful for sub-classes only *)
  content : Value_type.t option;
      (** value type of instances, when instances carry a value *)
  super : string option;
      (** generalization: name of the super class (top-level classes
          only); e.g. [Data]'s super is [Thing] in Fig. 3 *)
  covering : bool;
      (** covering generalization: every instance must eventually be
          specialized into one of this class's specializations —
          completeness information *)
  procedures : string list;
      (** names of attached procedures triggered by updates of instances *)
}

val v :
  ?card:Cardinality.t ->
  ?content:Value_type.t ->
  ?super:string ->
  ?covering:bool ->
  ?procedures:string list ->
  string list ->
  t
(** [v path] builds a class definition. [card] defaults to [0..*]. *)

val name : t -> string
(** Dotted path, e.g. ["Data.Text.Body"]. *)

val simple_name : t -> string
(** Final path component. *)

val is_top_level : t -> bool

val parent_name : t -> string option
(** Dotted path of the enclosing class, for sub-classes. *)
