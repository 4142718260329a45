(** Definition of an association (relationship class).

    An association relates top-level object classes through named roles,
    each with a participation cardinality. Fig. 2 of the paper: [Read]
    relates [Data] and [Action] in roles [from] and [by]; the [1..*] on
    the [Data] side means every [Data] object must eventually take part
    in at least one [Read] relationship.

    Associations may be generalized (Fig. 3: [Access] generalizes [Read]
    and [Write]); specialized associations correspond to their super
    {e positionally}: role [i] of the specialization refines role [i] of
    the super, and its target must be the super target or one of its
    specializations. The [ACYCLIC] attribute (on associations whose two
    roles range over one generalization hierarchy) forbids cycles, e.g.
    the [Contained] association imposing a tree structure on
    [Action]s. *)

type role = {
  role_name : string;
  target : string;  (** top-level class whose instances play this role *)
  card : Cardinality.t;
      (** how many relationships of this association (or any of its
          specializations) each target instance takes part in, in this
          role *)
}

type attr = {
  attr_name : string;
  attr_type : Value_type.t;
  required : bool;
      (** a required attribute that is still undefined is completeness
          information — reported, never enforced (Fig. 3's
          [NumberOfWrites 1..1] on [Write]) *)
}

type t = {
  name : string;
  roles : role list;  (** at least two *)
  attrs : attr list;
      (** attributes carried by every relationship of this association *)
  acyclic : bool;
  super : string option;  (** generalization over associations *)
  covering : bool;  (** covering condition — completeness information *)
  procedures : string list;
}

val v :
  ?attrs:attr list ->
  ?acyclic:bool ->
  ?super:string ->
  ?covering:bool ->
  ?procedures:string list ->
  string ->
  role list ->
  t
(** [v name roles]; raises [Invalid_argument] if fewer than two roles,
    duplicate role names, or duplicate attribute names. *)

val attr : ?required:bool -> string -> Value_type.t -> attr
(** [attr name ty] builds an attribute declaration ([required] defaults
    to [false]). *)

val find_attr : t -> string -> attr option
(** Own attributes only; {!Schema.resolve_attr} searches the
    generalization chain. *)

val role :
  ?card:Cardinality.t ->
  string ->
  string ->
  role
(** [role name target] builds a role; [card] defaults to [0..*]. *)

val arity : t -> int

val role_position : t -> string -> int option
(** Position of a role by name, for positional correspondence across a
    generalization hierarchy. *)

val nth_role : t -> int -> role

val pp : Format.formatter -> t -> unit
