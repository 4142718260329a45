(** Completeness checking — performed only on demand.

    Minimum cardinalities and covering conditions for generalizations
    represent completeness information (paper, §Incomplete data): they
    describe the desired {e final} state of the data, so violating them
    never blocks an update. Formal detection of incompleteness is
    provided by these operations, which check the rules derivable from
    the completeness conditions in the schema.

    Patterns are not checked on their own; their contributions are
    counted inside each normal inheritor's context, via the pattern
    expansion of {!View}. *)

open Seed_util

type diagnostic =
  | Missing_sub_objects of {
      id : Ident.t;
      subject : string;  (** composed name of the incomplete object *)
      role : string;
      class_path : string;
      required : int;
      present : int;
    }
  | Missing_participation of {
      id : Ident.t;
      subject : string;
      assoc : string;
      role : string;
      required : int;
      present : int;
    }
  | Unspecialized_class of { id : Ident.t; subject : string; cls : string }
      (** the object sits in a covering generalized class and must
          eventually be re-classified into a specialization *)
  | Unspecialized_assoc of { id : Ident.t; assoc : string }
  | Undefined_value of { id : Ident.t; subject : string; class_path : string }
      (** a leaf sub-object exists but its value is still undefined *)
  | Missing_attribute of { id : Ident.t; assoc : string; attr : string }
      (** a required relationship attribute is still undefined (Fig. 3's
          [NumberOfWrites 1..1]) *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val check_object : View.t -> Item.t -> diagnostic list
(** All incompleteness of one live normal independent object, including
    its (inherited) sub-object tree and its participation minima. *)

val check_database : View.t -> diagnostic list
(** Incompleteness report over the whole view, in object-name order. *)

val is_complete : View.t -> bool
(** [check_database view = []] — the data could now "serve as a basis
    for implementation" in the paper's sense. *)
