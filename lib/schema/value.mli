(** Runtime values of leaf sub-objects. *)

type date = { year : int; month : int; day : int }

type t =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Date of date
  | Enum of string  (** one constant of an [Enum] value type *)

val to_string : t -> string

val date : int -> int -> int -> t
(** [date y m d] builds a date value; raises [Invalid_argument] when the
    triple is not a plausible calendar date. *)

val check : Value_type.t -> t -> (unit, Seed_util.Seed_error.t) result
(** [check ty v] succeeds iff [v] is a legal value of type [ty]
    (including enum-constant membership). *)
