(** Types of values carried by leaf sub-objects.

    In Fig. 2 of the paper, class [Data.Text.Selector] has objects of
    type [STRING] as instances and class [Thing.Revised] (Fig. 3) has
    [DATE] instances. SEED value types are deliberately simple: the
    interesting structure lives in objects and relationships. *)

type t =
  | String
  | Int
  | Float
  | Bool
  | Date  (** calendar date, stored as (year, month, day) *)
  | Enum of string list
      (** closed set of symbolic constants, e.g. error-handling modes
          [(abort, repeat)] of Fig. 3 *)

val equal : t -> t -> bool

val to_string : t -> string
(** Upper-case schema rendering: [STRING], [INT], [ENUM(a,b)] ... *)
