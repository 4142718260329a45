type t = int

val compare : t -> t -> int
(** Used only by [Set.Make], through the module as a functor argument. *)
