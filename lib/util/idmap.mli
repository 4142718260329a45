(** Persistent ident-keyed id-set multimaps (children, rels-of,
    inheritors indexes of the copy-on-write database root). *)

type t = Ident.Set.t Ident.Map.t

val empty : t
val get : t -> Ident.t -> Ident.Set.t
val add : t -> Ident.t -> Ident.t -> t
val remove : t -> Ident.t -> Ident.t -> t
