(** The conventional-DBMS baseline: full compliance on every entry.

    "The normal approach to database consistency is to require all data
    in the database to fully comply with the structures and constraints
    given in the schema. However, this approach prevents the entry of
    incomplete and vague information" (paper, §Managing vague and
    incomplete information).

    This store implements that normal approach over the same schema
    language as SEED: an insertion must arrive as a {e complete cluster}
    — objects together with all sub-objects and relationships required
    by the minimum cardinalities — or it is rejected outright. There is
    no generalization-based vagueness (objects must be classified in a
    leaf class when the generalization is covering), no
    re-classification (evolve by delete + re-insert), and no patterns.
    Versioning is full-copy ({!Full_copy}), after Tichy-style file
    versioning. *)

open Seed_util
open Seed_schema

type t

val create : Schema.t -> t

type new_obj = {
  no_name : string;
  no_cls : string;
  no_value : Value.t option;
  no_subs : (string * Value.t option) list;
      (** immediate sub-objects as [(role, value)]; multi-instance roles
          may repeat *)
}

type new_rel = {
  nr_assoc : string;
  nr_endpoints : string list;  (** object names, positional *)
}

val insert_cluster :
  t -> objs:new_obj list -> rels:new_rel list -> (unit, Seed_error.t) result
(** All-or-nothing insertion. Checks {e both} consistency and
    completeness information: class membership, value types, maximum
    cardinalities, acyclicity, minimum sub-object counts, minimum
    participation, and covering conditions (an object may not sit in a
    covering generalized class). *)

val delete_object : t -> string -> (unit, Seed_error.t) result
(** Physical removal, cascading to relationships — refused when it would
    leave a remaining object below a minimum participation bound (the
    conventional referential-integrity stance). *)

val set_value :
  t -> name:string -> ?role:string * int -> Value.t -> (unit, Seed_error.t) result
(** Update the value of an object or of one of its immediate
    sub-objects (addressed by role and position). *)

val mem : t -> string -> bool
val class_of : t -> string -> string option
val sub_values : t -> string -> role:string -> Value.t list
val rels_of : t -> string -> (string * string list) list
val object_count : t -> int
val rel_count : t -> int

module Full_copy : sig
  type snapshot
  (** A deep copy of the whole store — the file-copy version baseline
      (Tichy [13]): space grows with database size, not delta size. *)

  val take : t -> snapshot
  val restore : t -> snapshot -> unit
  val size_bytes : snapshot -> int
end
